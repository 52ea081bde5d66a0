"""In-memory span tracer wrapped around wgphase's public functions.

Spans are recorded from outside the program: every traced function is
replaced, at every module attribute it is looked up through, by a wrapper
that records (name, start, end, parent span, item).  Spans stay in flat
arrays until the run ends; :func:`self_times` then turns them into self
time, the span's duration minus the part of it its child spans cover.
Counters (calls, grid points, bytes, ...) are taken at the same boundaries.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT = -1

# (module, qualified name) of every traced function
TRACED = [
    ("interferometer", "apply_shot_noise"), ("interferometer", "lock_loop_residual"),
    ("interferometer", "fringe_trace"),
    ("extraction", "window_phasors"), ("extraction", "estimate_path_length_fft"),
    ("extraction", "extract_phasor_series"),
    ("emitter", "phase_extrema_numeric"), ("emitter", "transmission"),
    ("lm", "lm_minimize"), ("lm", "jacobian_fd"),
    ("spectra", "fit_saturation_series"), ("spectra", "predict_phase_vs_power"),
    ("spectra", "fit_two_dipole_spectra"), ("spectra", "channel_model"),
    ("io", "write_trace_csv"), ("io", "parse_trace_csv"), ("io", "parse_phasors_csv"),
    ("io", "ResultBundle.write_table"), ("io", "ResultBundle.finalize"),
    ("config", "load_config"),
    ("cli", "main"), ("cli", "cmd_simulate"), ("cli", "cmd_extract"), ("cli", "cmd_fit"),
    ("cli", "cmd_fit_saturation"), ("cli", "cmd_predict_chiral"),
]


class Tracer:
    """Span store plus counters; one per traced run."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.item = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(float)
        self._stack = [ROOT]
        self._item = -1

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_item(self, item: int):
        self._item = item

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.item.append(self._item)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(args, kwargs, result)`` updates counters.
        """
        nid = self.intern(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def arrays(self) -> dict:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "item": np.frombuffer(self.item, dtype=np.int64),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def self_time_by_name(self) -> dict:
        own = self_times(self.start, self.end, self.parent)
        totals = np.bincount(np.frombuffer(self.name_id, dtype=np.int32), weights=own,
                             minlength=len(self.names))
        return {name: float(totals[i]) for i, name in enumerate(self.names)}


def self_times(start, end, parent) -> np.ndarray:
    """Self time of every span: its duration minus the union of its
    children's intervals, each clipped to the parent's interval."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    children = defaultdict(list)
    for idx, par in enumerate(np.asarray(parent).tolist()):
        if par != ROOT:
            children[par].append(idx)
    own = end - start
    for par, kids in children.items():
        lo, hi = start[par], end[par]
        intervals = sorted((max(start[k], lo), min(end[k], hi)) for k in kids)
        covered, cur_lo, cur_hi = 0.0, None, None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        own[par] -= covered
    return own


class Patcher:
    """Install wrappers at every attribute that refers to a traced function
    and take them out again, so traced and untraced items can alternate."""

    def __init__(self, tracer: Tracer, hooks: dict, extra=()):
        self.tracer = tracer
        self._patches = []  # (owner, attribute, original, wrapper)
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "wgphase" or name.startswith("wgphase.")) and m is not None]
        for mod_name, qualname in TRACED:
            mod = sys.modules[f"wgphase.{mod_name}"]
            name = f"{mod_name}.{qualname}"
            before, after = hooks.get(name, (None, None))
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[attr]
                self._patches.append((cls, attr, fn, tracer.span(name, fn, before, after)))
                continue
            fn = getattr(mod, qualname)
            wrapper = tracer.span(name, fn, before, after)
            for owner in modules:
                for attr, value in vars(owner).items():
                    if value is fn:
                        self._patches.append((owner, attr, fn, wrapper))
        for owner, attr, replacement in extra:
            self._patches.append((owner, attr, getattr(owner, attr), replacement))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
