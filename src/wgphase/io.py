"""File formats: fringe-trace CSV, phasor CSV, fit JSON, result bundles.

Traces are CSV with the exact header ``freq_ghz,counts`` plus a JSON
sidecar (``<name>.meta.json``) carrying the synthesis metadata and schema
version.  One writer formats every table with 17 significant digits
(``%.17g``), so a write/read round trip is bit-exact; the two traces of a
pair format their shared frequency column once.  One strict reader checks
the header, the field count and the numbers of both CSV schemas, and their
sidecars, which must be JSON objects.  A file as the writer writes it
(number bytes, commas and ``\n``) is checked on its bytes and converted in
one cast; any other file is first cut into its non-blank lines, as
``str.splitlines`` cuts them, which take the same check and cast.  A file
that fails them is named with its first bad ``file:line``.  Traces must
also be finite, with non-negative counts and strictly increasing frequency.

Every file is written as the UTF-8 bytes of its text, with ``\n`` line
ends on every platform.  A :class:`ResultBundle` collects the files of one
command run, hashing each one's bytes as they are written, and writes a
``manifest.json`` of those sha256 hashes and sizes; identical config and
seed must reproduce byte-identical data products.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

import numpy as np

from .extraction import PhasorSeries
from .interferometer import FringeTrace
from .lm import FitResult
from .units import is_number

SCHEMA_VERSION = "wgphase/1"
TRACE_HEADER = "freq_ghz,counts"
PHASOR_HEADER = "freq_ghz,phase_rad,phase_err,amp_ratio,amp_err,offset_ratio,offset_err"


class TraceParseError(ValueError):
    """Malformed trace or phasor file or sidecar; message names file and line."""


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def _write_utf8(path: Path, text: str) -> dict:
    """Write ``text`` to ``path`` as UTF-8 bytes; the sha256 and length of those bytes."""
    data = text.encode("utf-8")
    path.write_bytes(data)
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def _discard(name: str, digest: dict):
    """The ``record`` of a file written outside a bundle."""


def _write_csv(path: Path, header: str, columns, sidecar: dict | None = None,
               record=_discard, grid: dict | None = None) -> Path:
    """One row per entry of the equal-length ``columns``, 17 significant
    digits, and the ``sidecar`` (with the schema version) when given;
    ``record(file name, digest)`` is called for each file written.  A
    ``grid`` maps the bits of a first column to its text, so the tables of a
    pair format their shared column once; the bytes are those written without."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    n_rows, n_columns = table.shape
    if grid is not None and n_rows:
        key = table[:, 0].tobytes()
        if key not in grid:
            grid[key] = "%.17g\n" * n_rows % tuple(table[:, 0].tolist())
        rest = table[:, 1:]
        # integers below 1e16 other than -0 (shot-noise counts) print the
        # digits of %.17g under %d, which formats them three times as fast
        if ((np.abs(rest) < 1e16).all() and (rest == np.trunc(rest)).all()
                and not np.signbit(rest[rest == 0]).any()):
            fmt, values = "%d", rest.astype(np.int64).ravel().tolist()
        else:
            fmt, values = "%.17g", rest.ravel().tolist()
        text = grid[key].replace("\n", ("," + fmt) * (n_columns - 1) + "\n") % tuple(values)
    else:
        # one %-format over the whole table; %.17g prints the bytes of {:.17g}
        row = ",".join(["%.17g"] * n_columns) + "\n"
        text = (row * n_rows) % tuple(table.ravel().tolist())
    record(path.name, _write_utf8(path, header + "\n" + text))
    if sidecar is not None:
        side = _sidecar_path(path)
        record(side.name, _write_utf8(side, _json_dumps({"schema": SCHEMA_VERSION, **sidecar})))
    return path


# every byte of a number as %.17g or float() spells it, ASCII only and no
# whitespace or underscore: a file of these bytes, commas and "\n" splits into
# lines as str.splitlines does
_NUMBER_BYTES = b"0123456789+-.eEnNaAiIfFtTyY"


def _read_csv(path: Path, header: str, grid: dict | None = None):
    """The non-blank rows under the exact ``header`` as a float array of shape
    (columns, rows), and the line number of each row.  A ``grid`` maps the
    text of a first column read before to its values, which a file whose
    whole first column is that text reuses; the file's own is added."""
    n_fields = header.count(",") + 1
    data = path.read_bytes()
    lead = header.encode("ascii") + b"\n"
    body, values, rows = data[len(lead):], None, None
    if data.startswith(lead) and not body.translate(None, _NUMBER_BYTES + b",\n"):
        values = _cast(body, n_fields, grid)
    if values is None:  # any other file, or one with a blank line, no final "\n" or a bad row
        rows = _cut_rows(path, data, header)
        values = _cast(("\n".join(line for _, line in rows) + "\n").encode("utf-8"),
                       n_fields, grid)
    if values is None:  # name the first bad row
        for lineno, line in rows:
            fields = line.split(",")
            if len(fields) != n_fields:
                raise TraceParseError(f"{path}:{lineno}: expected {n_fields} comma-separated "
                                      f"fields, got {len(fields)}")
            try:
                list(map(float, fields))
            except ValueError as exc:
                raise TraceParseError(f"{path}:{lineno}: non-numeric value ({exc})") from exc
    return values, range(2, values.shape[1] + 2) if rows is None else [n for n, _ in rows]


def _cut_rows(path: Path, data: bytes, header: str) -> list:
    """The non-blank lines after the header line of the UTF-8 ``data``, as
    ``str.splitlines`` cuts them, each with its line number."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"{path}: not valid UTF-8 ({exc})") from exc
    if not lines or lines[0].strip() != header:
        found = lines[0].strip() if lines else "<empty file>"
        raise TraceParseError(f"{path}:1: expected header {header!r}, found {found!r}")
    rows = [(n, line) for n, line in enumerate(lines[1:], start=2) if line.strip()]
    if not rows:
        raise TraceParseError(f"{path}: no data rows")
    return rows


def _cast(body: bytes, n_fields: int, grid: dict | None):
    """The rows of ``body``, each ``n_fields`` comma-separated fields ended by
    ``\n``, as a float array of shape (columns, rows), the fields converted in
    one cast (numpy's str -> float accepts exactly what float() accepts);
    None when a row holds another field count or a field is no number.  The
    first column is taken from or added to ``grid`` as :func:`_read_csv` says."""
    buf = np.frombuffer(body, dtype=np.uint8)
    newline = buf == 10
    is_end = newline[np.flatnonzero(newline | (buf == 44))]
    if not body.endswith(b"\n") or is_end.size % n_fields:
        return None
    is_end = is_end.reshape(-1, n_fields)
    if not is_end[:, -1].all() or is_end[:, :-1].any():
        return None
    tokens = body.decode("utf-8").replace("\n", ",").split(",")[:-1]
    key = "\n".join(tokens[::n_fields]) if grid is not None else None
    try:
        if grid and key in grid:
            del tokens[::n_fields]
            values = np.empty((n_fields, len(grid[key])))
            values[0] = grid[key]
            values[1:] = np.array(tokens, dtype=float).reshape(values.shape[1], n_fields - 1).T
        else:
            values = np.array(tokens, dtype=float).reshape(-1, n_fields).T.copy()
    except ValueError:
        return None
    if grid is not None:
        grid.setdefault(key, values[0])
    return values


def _read_sidecar(path: Path) -> dict:
    """The JSON object in the sidecar of ``path``; empty when there is none."""
    sidecar = _sidecar_path(path)
    try:
        meta = json.loads(sidecar.read_text(encoding="utf-8")) if sidecar.exists() else {}
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON or nested too deeply
        raise TraceParseError(f"{sidecar}: not valid JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise TraceParseError(f"{sidecar}: must be a JSON object, got {type(meta).__name__}")
    return meta


def write_trace_csv(trace: FringeTrace, path, *, _record=_discard, _grid=None) -> Path:
    return _write_csv(Path(path), TRACE_HEADER, [trace.freq, trace.intensity], trace.meta or {},
                      _record, _grid)


def parse_trace_csv(path, *, _grid=None) -> FringeTrace:
    path = Path(path)
    (freq, counts), linenos = _read_csv(path, TRACE_HEADER, _grid)
    finite = np.isfinite(freq) & np.isfinite(counts)
    bad = np.flatnonzero(~finite | (counts < 0) | np.r_[False, freq[1:] <= freq[:-1]])
    if bad.size:
        i = bad[0]
        if not finite[i]:
            raise TraceParseError(f"{path}:{linenos[i]}: non-finite value not allowed")
        if counts[i] < 0:
            raise TraceParseError(f"{path}:{linenos[i]}: counts must be non-negative, "
                                  f"got {float(counts[i])!r}")
        raise TraceParseError(f"{path}:{linenos[i]}: freq_ghz must be strictly increasing "
                              f"({float(freq[i])!r} after {float(freq[i - 1])!r})")
    meta = _read_sidecar(path)
    interf = meta.get("interferometer", {})
    if not (isinstance(interf, dict) and all(interf.get(key) is None or is_number(interf[key])
                                             for key in ("p_lo_cps", "integration_time_s"))):
        raise TraceParseError(f"{_sidecar_path(path)}: interferometer must be an object "
                              f"whose p_lo_cps and integration_time_s are numbers")
    if not isinstance(meta.get("qd_on", False), bool):
        raise TraceParseError(f"{_sidecar_path(path)}: qd_on must be true or false, "
                              f"got {meta['qd_on']!r}")
    return FringeTrace(freq=freq, intensity=counts, meta=meta)


def parse_trace_pair(on_path, off_path):
    """The on and off traces of a pair, each read by :func:`parse_trace_csv`;
    the off trace reuses the on trace's frequencies when its column is the
    same text."""
    grid = {}
    # through the module global, so a wrapper installed on parse_trace_csv sees each call
    return parse_trace_csv(on_path, _grid=grid), parse_trace_csv(off_path, _grid=grid)


def write_phasors_csv(series: PhasorSeries, path, meta: dict | None = None, *,
                      _record=_discard) -> Path:
    columns = [series.freq, series.phase_shift, series.phase_err, series.amp_ratio,
               series.amp_err, series.offset_ratio, series.offset_err]
    return _write_csv(Path(path), PHASOR_HEADER, columns,
                      {"low_contrast_freqs": series.freq[series.low_contrast].tolist(),
                       **(meta or {})}, _record)


def parse_phasors_csv(path) -> PhasorSeries:
    path = Path(path)
    columns, _ = _read_csv(path, PHASOR_HEADER)
    low = phasor_file_meta(path).get("low_contrast_freqs", [])
    return PhasorSeries(*columns, low_contrast=np.isin(columns[0], low))


def phasor_file_meta(path) -> dict:
    """The sidecar of a phasor CSV; ``low_contrast_freqs`` holds numbers, ``power`` a number > 0."""
    path = Path(path)
    meta = _read_sidecar(path)
    low, power = meta.get("low_contrast_freqs", []), meta.get("power")
    if not (isinstance(low, list) and all(map(is_number, low))
            and (power is None or is_number(power) and power > 0)):
        raise TraceParseError(f"{_sidecar_path(path)}: low_contrast_freqs must be a list "
                              f"of numbers and power a number > 0")
    return meta


def fit_result_json(result: FitResult, extra: dict | None = None) -> str:
    return _json_dumps({"schema": SCHEMA_VERSION, **result.as_dict(), "covariance":
                        result.covariance, "covariance_names": result.names, **(extra or {})})


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"


def _json_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):  # numpy scalars and arrays
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


class ResultBundle:
    """Output directory of one command run, finished off with a manifest.

    The directory is made at the first write, so a run that fails before it
    writes anything leaves none.  Each file's sha256 hash and size are taken
    from its bytes as it is written (``files`` maps name to that digest; a
    name written twice keeps its last one), and ``finalize`` writes them to
    ``manifest.json`` without reading any file back, so reproducibility is
    checkable after the fact.
    """

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.files: Dict[str, dict] = {}

    def path(self, name: str) -> Path:
        if not self.files:  # the first write makes the directory
            self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name

    def write_text(self, name: str, content: str) -> Path:
        path = self.path(name)
        self.files[name] = _write_utf8(path, content)
        return path

    def write_json(self, name: str, obj) -> Path:
        return self.write_text(name, _json_dumps(obj))

    def write_traces(self, traces: Dict[str, FringeTrace]):
        """Each trace under its name; the frequency text of each grid is
        formatted once and reused by every later trace on it."""
        grid = {}
        for name, trace in traces.items():
            # through the module global, so a wrapper installed on write_trace_csv sees each call
            write_trace_csv(trace, self.path(name), _record=self.files.__setitem__, _grid=grid)

    def write_phasors(self, name: str, series: PhasorSeries, meta=None) -> Path:
        return write_phasors_csv(series, self.path(name), meta=meta,
                                 _record=self.files.__setitem__)

    def write_table(self, name: str, header: str, columns) -> Path:
        return _write_csv(self.path(name), header, columns, record=self.files.__setitem__)

    def finalize(self) -> Path:
        path = self.path("manifest.json")
        _write_utf8(path, _json_dumps({"schema": SCHEMA_VERSION, "files": self.files}))
        return path
