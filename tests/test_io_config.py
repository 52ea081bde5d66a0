from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _read_csv as read_csv_oracle

from wgphase import io
from wgphase.config import ConfigError, RunConfig, load_config
from wgphase.emitter import EmitterParams
from wgphase.extraction import PhasorSeries
from wgphase.interferometer import EnvPhase, FringeTrace, InterferometerConfig, fringe_trace
from wgphase.io import (PHASOR_HEADER, SCHEMA_VERSION, TRACE_HEADER, ResultBundle,
                        TraceParseError, _read_csv, _write_csv, parse_phasors_csv,
                        parse_trace_csv, write_phasors_csv, write_trace_csv)


@pytest.fixture
def trace():
    cfg = InterferometerConfig(delta_l_m=2.78, visibility=0.65, p_lo_cps=1e6, p_sig_cps=1e4,
                               integration_time_s=0.1)
    freq = np.linspace(-2, 2, 257)
    return fringe_trace(cfg, EmitterParams.isotropic(gamma=12.3), freq, qd_on=False)


def test_trace_roundtrip_bit_exact(tmp_path, trace):
    # awkward values exercise the 17-significant-digit float formatting
    trace.intensity[3] = 0.1 + 0.2
    trace.intensity[4] = 1e-300
    path = write_trace_csv(trace, tmp_path / "t.csv")
    back = parse_trace_csv(path)
    np.testing.assert_array_equal(back.freq, trace.freq)
    np.testing.assert_array_equal(back.intensity, trace.intensity)
    assert back.meta["interferometer"]["p_lo_cps"] == 1e6


@pytest.mark.parametrize("qd_on", ["false", 1, None])
def test_trace_sidecar_qd_on_must_be_a_boolean(tmp_path, trace, qd_on):
    path = write_trace_csv(trace, tmp_path / "t.csv")
    sidecar = tmp_path / "t.csv.meta.json"
    meta = json.loads(sidecar.read_text(encoding="utf-8"))
    sidecar.write_text(json.dumps({**meta, "qd_on": qd_on}), encoding="utf-8")
    with pytest.raises(TraceParseError, match=f"{sidecar}: qd_on must be true or false"):
        parse_trace_csv(path)
    # a trace without the key, such as a lab CSV with no sidecar, passes
    del meta["qd_on"]
    sidecar.write_text(json.dumps(meta), encoding="utf-8")
    assert "qd_on" not in parse_trace_csv(path).meta


def test_trace_parse_errors_name_lines(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("freq_ghz,counts\n0.0,1.0\n0.5\n", encoding="utf-8")
    with pytest.raises(TraceParseError, match="bad.csv:3"):
        parse_trace_csv(path)

    path.write_text("freq_ghz,counts\n0.0,1.0\n0.5,nan\n", encoding="utf-8")
    with pytest.raises(TraceParseError, match="non-finite"):
        parse_trace_csv(path)

    path.write_text("freq_ghz,counts\n1.0,1.0\n0.5,2.0\n", encoding="utf-8")
    with pytest.raises(TraceParseError, match="strictly increasing"):
        parse_trace_csv(path)

    path.write_text("wrong,header\n0.0,1.0\n", encoding="utf-8")
    with pytest.raises(TraceParseError, match="expected header"):
        parse_trace_csv(path)


def test_trace_parse_rejects_locale_commas(tmp_path):
    # "1,5" as a decimal must fail loudly, not parse as something else
    path = tmp_path / "locale.csv"
    path.write_text("freq_ghz,counts\n0.0,1.0\n1,5,2.0\n", encoding="utf-8")
    with pytest.raises(TraceParseError, match="locale.csv:3"):
        parse_trace_csv(path)


@pytest.mark.parametrize("newline", ["\r\n", "\r", "\x0c"])
def test_trace_parse_line_breaks(tmp_path, newline):
    path = tmp_path / "t.csv"
    path.write_bytes(newline.join(["freq_ghz,counts", "0.0,1.5", "1.0,2.5", ""]).encode())
    back = parse_trace_csv(path)
    np.testing.assert_array_equal(back.freq, [0.0, 1.0])
    np.testing.assert_array_equal(back.intensity, [1.5, 2.5])


@pytest.mark.parametrize("body, message", [
    # blank lines are skipped but counted: the bad row is line 5
    ("0.0,1.0\n\n   \n2.0,x\n", "5: non-numeric value"),
    ("0.0,1.0\n\n2.0,1.0\n\n1.0,1.0\n", "6: freq_ghz must be strictly increasing"),
    ("0.0,1.0\n1.0,1e\n", "3: non-numeric value"),
    ("0.0,--1\n", "2: non-numeric value"),
    ("0.0,0x1p3\n", "2: non-numeric value"),
    # the comma count is checked per line, not in total
    ("1,2,3\n4\n", "2: expected 2 comma-separated fields, got 3"),
    # a last row without its "\n" is not dropped, even when it is one field short
    ("0.0,1.0\n2.0", "3: expected 2 comma-separated fields, got 1"),
    # was left to FringeTrace: "intensity must be finite and non-negative", naming no file
    ("0,1\n1,-2\n2,3\n", "3: counts must be non-negative, got -2.0"),
])
def test_trace_parse_errors_name_the_right_line(tmp_path, body, message):
    path = tmp_path / "t.csv"
    path.write_text("freq_ghz,counts\n" + body, encoding="utf-8")
    with pytest.raises(TraceParseError) as err:
        parse_trace_csv(path)
    assert str(err.value).startswith(f"{path}:{message}")


def test_trace_parse_blank_lines_and_padding(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("freq_ghz,counts\n 0.5 ,\t2 \n\n1.5,3\n", encoding="utf-8")
    back = parse_trace_csv(path)
    np.testing.assert_array_equal(back.freq, [0.5, 1.5])
    np.testing.assert_array_equal(back.intensity, [2.0, 3.0])


def test_phasor_parse_accepts_what_float_accepts(tmp_path):
    # underscores, non-ASCII digits and every nan/inf spelling parse as float() parses them
    fields = ["1_000", "\uff11\uff12", "\u0661\u0662", "nan", "NaN", "-nan", "Infinity",
              "-infinity", "iNF", " +inf", "1e400", "-0"]
    rows = ["0," + ",".join(fields[:6]), "1," + ",".join(fields[6:])]
    path = tmp_path / "p.csv"
    path.write_text(PHASOR_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    back = parse_phasors_csv(path)
    want = np.array([[float(v) for v in row.split(",")] for row in rows])
    for j, name in enumerate(("freq", "phase_shift", "phase_err", "amp_ratio", "amp_err",
                              "offset_ratio", "offset_err")):
        assert _bits(getattr(back, name)) == _bits(want[:, j]), name


@pytest.mark.parametrize("n_columns", [1, 2, 4, 7])
def test_write_csv_matches_format_reference(tmp_path, n_columns):
    # %.17g must print the bytes of {:.17g} for every double
    rng = np.random.default_rng(n_columns)
    special = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.7976931348623157e308,
               2.0 ** 53 + 2, 2.0 ** 60 + 2 ** 10, -(2.0 ** 70), 0.1 + 0.2, 1e-310]
    columns = []
    for _ in range(n_columns):
        values = rng.normal(size=64) * 10.0 ** rng.integers(-300, 300, size=64)
        values[:len(special)] = special
        columns.append(rng.permutation(values))
    path = _write_csv(tmp_path / "x.csv", "h", columns)
    want = "h\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                           for row in zip(*(c.tolist() for c in columns)))
    assert path.read_bytes() == want.encode()


def test_phasor_roundtrip(tmp_path):
    i = np.arange(5)
    series = PhasorSeries(freq=0.1 * i, phase_shift=-0.2 + 0.01 * i, amp_ratio=np.full(5, 0.9),
                          offset_ratio=np.full(5, 0.8), phase_err=np.full(5, 0.01),
                          amp_err=np.full(5, 0.02), offset_err=np.full(5, 0.03),
                          low_contrast=(i == 2))
    path = write_phasors_csv(series, tmp_path / "p.csv", meta={"power": 2.5})
    back = parse_phasors_csv(path)
    assert len(back) == 5
    for j in range(5):
        assert series.freq[j] == back.freq[j]
        assert series.phase_shift[j] == back.phase_shift[j]
        assert series.low_contrast[j] == back.low_contrast[j]


# the text format carries one NaN, so the values drawn use the canonical one
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ANY_VALUE = st.floats(allow_nan=False) | st.just(math.nan)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@settings(derandomize=True, database=None, deadline=None)
@given(rows=st.lists(st.tuples(_FINITE, st.floats(min_value=0.0, allow_infinity=False)),
                     min_size=1, unique_by=lambda row: row[0]))
def test_trace_csv_roundtrip_property(tmp_path_factory, rows):
    freq, counts = zip(*sorted(rows))
    trace = FringeTrace(freq=np.array(freq), intensity=np.array(counts), meta={"run": 1})
    back = parse_trace_csv(write_trace_csv(trace, tmp_path_factory.mktemp("t") / "t.csv"))
    assert _bits(back.freq) == _bits(freq)
    assert _bits(back.intensity) == _bits(counts)
    assert back.meta == {"schema": SCHEMA_VERSION, "run": 1}


@settings(derandomize=True, database=None, deadline=None)
@given(rows=st.lists(st.tuples(_FINITE, *[_ANY_VALUE] * 6, st.booleans()),
                     min_size=1, unique_by=lambda row: row[0]))
def test_phasor_csv_roundtrip_property(tmp_path_factory, rows):
    columns = list(zip(*sorted(rows)))
    series = PhasorSeries(*map(np.array, columns[:7]), low_contrast=np.array(columns[7]))
    back = parse_phasors_csv(write_phasors_csv(series, tmp_path_factory.mktemp("p") / "p.csv"))
    for name in ("freq", "phase_shift", "amp_ratio", "offset_ratio", "phase_err", "amp_err",
                 "offset_err"):
        assert _bits(getattr(back, name)) == _bits(getattr(series, name)), name
    np.testing.assert_array_equal(back.low_contrast, series.low_contrast)


# fields float() reads though the writer never spells them so, fields it
# rejects, the line breaks of str.splitlines other than "\n", and blanks
_ODD_FIELDS = ["1_0", "+1e3", "-0", "1e400", ".5", "5.", "nan", "NaN", "-nan", "+nan", "inf",
               "-inf", "Infinity", "-iNF", "\uff11", "\u0661"]
_BAD_FIELDS = ["", "1e", "abc", "1..2", "0x1", "in", "nan(1)", "1 2", "\x00", "\x1f1"]
_BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
_BLANKS = ["", " ", "\t", " \t "]
_TOKEN = _FINITE.map("%.17g".__mod__) | st.integers(-10**6, 10**6).map(str)
_MUTATIONS = ["field", "pad", "count", "break", "stray", "blank", "final", "header", "utf8"]


@st.composite
def _csv_files(draw, first_op):
    """(header, bytes of a table file, bytes of its partner): rows of numbers
    as the writer spells them, then the mutation ``first_op`` (None: none)
    and up to two more; the partner holds the same rows with some
    first-column fields respelt or changed."""
    header = draw(st.sampled_from([TRACE_HEADER, PHASOR_HEADER]))
    n = header.count(",") + 1
    rows = draw(st.lists(st.lists(_TOKEN, min_size=n, max_size=n), min_size=1, max_size=6))
    partner = [[draw(st.sampled_from([row[0], row[0] + "0" if "e" not in row[0] else row[0],
                                      "%.17g" % (float(row[0]) + 1.0)])), *row[1:]]
               for row in rows]
    lines = [header] + [",".join(row) for row in rows]
    ends = ["\n"] * len(lines)
    tail = b""
    ops = [first_op] if first_op else []
    for op in ops + draw(st.lists(st.sampled_from(_MUTATIONS), max_size=2)):
        i = draw(st.integers(1, len(lines) - 1))
        fields = lines[i].split(",")
        j = draw(st.integers(0, len(fields) - 1))
        if op == "field":
            fields[j] = draw(st.sampled_from(_ODD_FIELDS + _BAD_FIELDS))
        elif op == "pad":
            pads = st.sampled_from(_BLANKS)
            fields[j] = draw(pads) + fields[j] + draw(pads)
        elif op == "count":
            fields = fields[:-1] if draw(st.booleans()) else fields + [fields[j]]
        elif op == "stray":  # a line break before or after a field's text
            brk = draw(st.sampled_from(_BREAKS))
            fields[j] = brk + fields[j] if draw(st.booleans()) else fields[j] + brk
        elif op == "break":
            ends[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(_BREAKS))
        elif op == "blank":  # first, middle or last line of the body
            at = draw(st.sampled_from([1, max(1, len(lines) // 2), len(lines)]))
            lines.insert(at, draw(st.sampled_from(_BLANKS)))
            ends.insert(at, draw(st.sampled_from(["\n"] + _BREAKS)))
            continue
        elif op == "final":
            ends[-1] = ""
        elif op == "header":
            lines[0] = draw(st.sampled_from([" " + header, header + "\t", header[:-1], ""]))
        else:
            tail = b"\xff\n"  # no UTF-8
        lines[i] = ",".join(fields)
    data = "".join(map(str.__add__, lines, ends)).encode("utf-8") + tail
    other = [header] + [",".join(row) for row in partner]
    return header, data, ("\n".join(other) + "\n").encode("utf-8")


def _read_outcome(read, path):
    """The columns' shape and bits and the line numbers, or the error's class
    name and message (the oracle raises a TraceParseError of its own)."""
    try:
        columns, linenos = read(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return columns.shape, _bits(columns), list(linenos)


@pytest.mark.parametrize("first_op", [None] + _MUTATIONS)
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(case=st.data())
def test_read_csv_matches_line_by_line_oracle(tmp_path_factory, first_op, case):
    # the reader checks a file's structure on its bytes and casts it at once,
    # cutting any other file into its lines first; either way it returns what
    # the oracle returns, also when it reuses the first column of a partner file
    header, data, partner = case.draw(_csv_files(first_op))
    root = tmp_path_factory.getbasetemp() / "read_oracle"  # rewritten by every example
    root.mkdir(exist_ok=True)
    path = root / "x.csv"
    path.write_bytes(data)
    (root / "partner.csv").write_bytes(partner)
    want = _read_outcome(lambda p: read_csv_oracle(p, header), path)
    assert _read_outcome(lambda p: _read_csv(p, header), path) == want
    grid = {}
    _read_csv(root / "partner.csv", header, grid)
    assert grid  # the partner's first column was read
    assert _read_outcome(lambda p: _read_csv(p, header, grid), path) == want


def test_read_csv_never_cuts_written_files(tmp_path, monkeypatch):
    # files as the writer writes them, nan, inf and -0 included, are cast from
    # their bytes: they never reach the line cutter
    trace = FringeTrace(freq=np.linspace(-1.0, 1.0, 9), intensity=np.arange(9.0) ** 3.5)
    values = [np.linspace(0.0, 1.0, 4), np.array([np.nan, np.inf, -np.inf, -0.0])]
    series = PhasorSeries(*values * 3, values[0], low_contrast=np.zeros(4, dtype=bool))
    paths = [write_trace_csv(trace, tmp_path / "t.csv"),
             write_phasors_csv(series, tmp_path / "p.csv")]
    cut, cut_rows = [], io._cut_rows
    monkeypatch.setattr(io, "_cut_rows", lambda path, *args: cut.append(path)
                        or cut_rows(path, *args))

    def check_reads():
        (freq, counts), linenos = _read_csv(paths[0], TRACE_HEADER)
        assert _bits(freq) == _bits(trace.freq) and _bits(counts) == _bits(trace.intensity)
        assert list(linenos) == list(range(2, 11))
        columns, _ = _read_csv(paths[1], PHASOR_HEADER)
        assert _bits(columns) == _bits([*values * 3, values[0]])

    check_reads()
    assert cut == []
    # the same files with a blank line last are cut, and read to the same values
    for path in paths:
        path.write_bytes(path.read_bytes() + b"\n")
    check_reads()
    assert cut == paths


# doubles whose %.17g text is easy to get wrong: signed zeros, subnormals,
# integers past 2**53, the largest double, infinities and nan
_WRITER_VALUES = (_FINITE | st.integers(10**16 - 10**3, 10**17 + 10**3).map(float)
                  | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310, -(2.0 ** 60 + 2 ** 8),
                                     1.7976931348623157e308, math.inf, -math.inf, math.nan]))


# integer-valued doubles, as shot-noise counts are, to past %.17g's last
# fixed-point digits at 1e17, and -0
_INTEGERS = (st.integers(-10**18, 10**18).map(float)
             | st.sampled_from([-0.0, 2.0 ** 53 + 2, 1e16 - 2, 1e16, 1e17 - 16, 1e17, -1e17]))


@settings(derandomize=True, database=None, deadline=None)
@given(n_columns=st.sampled_from([1, 2, 7]),
       first=st.lists(_WRITER_VALUES, min_size=1, max_size=8), data=st.data())
def test_paired_writer_matches_one_format_writer(tmp_path_factory, n_columns, first, data):
    # two tables written with one grid are byte for byte the tables written on
    # their own, also when the second one's first column differs in one value
    n = len(first)
    root = tmp_path_factory.mktemp("w")
    grid = {}
    for k in range(2):
        column = list(first)
        if k and data.draw(st.booleans()):
            column[data.draw(st.integers(0, n - 1))] = data.draw(_WRITER_VALUES)
        values = data.draw(st.sampled_from([_WRITER_VALUES, _INTEGERS]))
        columns = [column] + [data.draw(st.lists(values, min_size=n, max_size=n))
                              for _ in range(n_columns - 1)]
        paired = _write_csv(root / f"paired{k}.csv", "h", columns, grid=grid).read_bytes()
        assert paired == _write_csv(root / f"alone{k}.csv", "h", columns).read_bytes()


def test_write_traces_on_unequal_grids_formats_each_trace(tmp_path):
    # 0.0 and -0.0 compare equal but print differently: the second trace's grid
    # differs in its bits, so it is formatted on its own
    freq = np.linspace(-1.0, 1.0, 5)
    traces = {"a.csv": FringeTrace(freq=freq, intensity=np.arange(5.0)),
              "b.csv": FringeTrace(freq=np.where(freq == 0.0, -0.0, freq),
                                   intensity=np.arange(5.0) + 0.5)}
    bundle = ResultBundle(tmp_path / "out")
    bundle.write_traces(traces)
    for name, trace in traces.items():
        alone = write_trace_csv(trace, tmp_path / name).read_bytes()
        assert (tmp_path / "out" / name).read_bytes() == alone
    assert b"\n-0," in (tmp_path / "out" / "b.csv").read_bytes()


def test_bundle_manifest_hashes(tmp_path):
    bundle = ResultBundle(tmp_path / "out")
    bundle.write_json("config.json", {"a": 1})
    bundle.write_table("x.csv", "a,b", [np.array([1.0, 2.0]), np.array([3.0, 4.0])])
    bundle.finalize()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    for name, entry in manifest["files"].items():
        data = (tmp_path / "out" / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert len(data) == entry["bytes"]


def test_bundle_manifest_matches_disk_without_reading_back(tmp_path, monkeypatch):
    bundle = ResultBundle(tmp_path / "out")
    bundle.write_json("summary.json", {"n": 1})
    bundle.write_table("x.csv", "a", [np.array([1.0, 2.0])])
    bundle.write_json("summary.json", {"n": 2, "rewritten": True})  # the last digest is kept
    series = PhasorSeries(*[np.arange(3.0)] * 7, low_contrast=np.array([False, True, False]))
    bundle.write_phasors("p.csv", series, meta={"power": 2.5})
    opened = []
    path_open = Path.open

    def recording_open(self, mode="r", *args, **kwargs):
        opened.append((self.name, mode))
        return path_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", recording_open)
    bundle.finalize()
    monkeypatch.undo()
    assert opened == [("manifest.json", "wb")]
    out = tmp_path / "out"
    on_disk = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    assert sorted(on_disk) == ["p.csv", "p.csv.meta.json", "summary.json", "x.csv"]
    assert json.loads(on_disk["summary.json"]) == {"n": 2, "rewritten": True}
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["files"] == {
        name: {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        for name, data in on_disk.items()}


def test_bundle_directory_made_at_first_write(tmp_path):
    # a run that fails before it writes anything leaves no output directory
    bundle = ResultBundle(tmp_path / "a" / "out")
    assert not (tmp_path / "a").exists()
    bundle.write_json("summary.json", {"n": 1})
    bundle.finalize()
    assert sorted(p.name for p in (tmp_path / "a" / "out").iterdir()) == ["manifest.json",
                                                                          "summary.json"]


def test_bundle_rerun_byte_identical(tmp_path, trace):
    digests = []
    for sub in ("a", "b"):
        bundle = ResultBundle(tmp_path / sub)
        bundle.write_traces({"trace.csv": trace})
        bundle.write_json("summary.json", {"n": trace.freq.size})
        bundle.finalize()
        manifest = json.loads((tmp_path / sub / "manifest.json").read_text())
        digests.append(manifest["files"])
    assert digests[0] == digests[1]


def test_config_defaults_and_resolved():
    cfg = load_config({})
    assert cfg.emitter.gamma_rad_ns == 12.3
    assert cfg.interferometer.delta_l_m == 2.78
    snap = cfg.resolved()
    assert snap["sweep"]["points"] == 4501
    assert snap["interferometer"]["env_phase"]["kind"] == "constant"
    # resolved snapshot reloads to the same config
    assert load_config(snap).resolved() == snap


def test_config_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match=r"emitter\.gama_rad_ns"):
        load_config({"emitter": {"gama_rad_ns": 1.0}})
    with pytest.raises(ConfigError, match=r"interferometer\.env_phase\.sgima_rad"):
        load_config({"interferometer": {"env_phase": {"sgima_rad": 0.1}}})
    with pytest.raises(ConfigError, match="unknown key"):
        load_config({"not_a_block": {}})


def test_config_type_errors():
    with pytest.raises(ConfigError, match=r"sweep\.points"):
        load_config({"sweep": {"points": 10.5}})
    with pytest.raises(ConfigError, match=r"noise\.shot_noise"):
        load_config({"noise": {"shot_noise": "yes"}})
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config("{broken json")


def test_config_domain_errors_carry_block():
    # checked at load, so every command rejects them
    with pytest.raises(ConfigError, match="emitter"):
        load_config({"emitter": {"beta": 1.5}})
    with pytest.raises(ConfigError, match="interferometer"):
        load_config({"interferometer": {"visibility": 2.0}})
    with pytest.raises(ConfigError, match="extraction"):
        load_config({"extraction": {"poly_order": -1}})


def test_config_env_phase_kinds():
    for kind in ("constant", "random_walk", "sinusoid", "locked_drift"):
        cfg = load_config({"interferometer": {"env_phase": {"kind": kind}}})
        series = cfg.interferometer.env_phase.series(64, 0.1)
        assert series.shape == (64,)
    with pytest.raises(ConfigError, match="unknown kind"):
        load_config({"interferometer": {"env_phase": {"kind": "volcano"}}})


def test_config_lock_gains_checked_at_load():
    def locked(dt=0.1, **gains):
        return {"interferometer": {"integration_time_s": dt,
                                   "env_phase": {"kind": "locked_drift", **gains}}}
    load_config(locked())                      # the defaults: pole radius 0.775
    load_config(locked(kp=0.5, ki=0.0))        # ki = 0: the pole at z = 1 is divided out
    with pytest.raises(ConfigError, match=r"interferometer\.env_phase: .*unstable"):
        load_config(locked(kp=5.0))
    with pytest.raises(ConfigError, match=r"interferometer\.env_phase: .*unstable"):
        load_config(locked(dt=0.01, kd=0.02))  # kd/dt = 2
    # only the locked_drift kind runs the loop, so only it has its gains checked
    load_config({"interferometer": {"env_phase": {"kind": "random_walk", "kp": 5.0}}})


def test_config_lock_gain_rule_reads_sweep_points():
    # the l1 norm of the loop's impulse response over sweep.points bounds the
    # residual of every walk, so the rule needs no walk and no seed
    def locked(points):
        return {"sweep": {"points": points},
                "interferometer": {"env_phase": {"kind": "locked_drift", "kp": -0.99, "ki": 0.01}}}
    with pytest.raises(ConfigError, match=r"interferometer\.env_phase over sweep\.points 4501 at "
                       r"integration_time_s 0\.1: PID gains kp=-0\.99, ki=0\.01, kd=0 .* 127\.6x"):
        load_config(locked(4501))
    load_config(locked(10))  # ||h[:10]||_1 = 9.40


def test_interferometer_block_is_the_library_record_and_round_trips():
    block = {"delta_l_m": 3.1, "visibility": 0.5, "p_lo_cps": 2e6, "p_sig_cps": 3e4,
             "integration_time_s": 0.2, "dark_cps": 5.0,
             "env_phase": {"kind": "locked_drift", "value_rad": 0.1, "sigma_rad": 0.02,
                           "amplitude_rad": 0.3, "frequency_hz": 0.4, "kp": 0.5, "ki": 2.0,
                           "kd": 0.001, "seed": 7}}
    cfg = load_config({"interferometer": block})
    assert cfg.interferometer == InterferometerConfig(
        **{**block, "env_phase": EnvPhase(**block["env_phase"])})
    assert cfg.resolved()["interferometer"] == block
    assert load_config(cfg.resolved()) == cfg


def test_trace_sidecar_records_the_interferometer_without_env_phase(tmp_path):
    cfg = InterferometerConfig(delta_l_m=3.1, dark_cps=5.0,
                               env_phase=EnvPhase(kind="sinusoid", amplitude_rad=0.3))
    trace = fringe_trace(cfg, EmitterParams.isotropic(gamma=12.3),
                         np.linspace(-2, 2, 33), qd_on=True)
    path = write_trace_csv(trace, tmp_path / "t.csv")
    sidecar = json.loads(Path(f"{path}.meta.json").read_text(encoding="utf-8"))
    assert set(sidecar["interferometer"]) == {"delta_l_m", "visibility", "p_lo_cps",
                                              "p_sig_cps", "integration_time_s", "dark_cps"}
    assert sidecar["interferometer"]["delta_l_m"] == 3.1
    assert sidecar["interferometer"]["dark_cps"] == 5.0


def test_runconfig_is_dataclass_roundtrip():
    cfg = RunConfig()
    cfg.noise.seed = 1234
    snap = cfg.resolved()
    assert snap["noise"]["seed"] == 1234
