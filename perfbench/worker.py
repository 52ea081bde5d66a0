"""Closed-loop workload process: one client, one item after another.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  It
calls ``wgphase.cli.main(argv)`` in-process, so interpreter start-up is not
part of any item.  One untimed warm-up item runs first.  Each item is timed
from its first command to its last; checks and clean-up run outside the
timed region.  Items are drawn in order from the generated pool, wrapping
round if the run outlasts it, until the timed total reaches ``--seconds``.

With ``--trace 1`` every input runs twice back to back, untraced and
traced, in alternating order, so the tracing overhead is measured on the
same inputs.  Spans are written to ``--spans`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from tracer import Patcher, Tracer

# per-layer metrics of a traced run: (name, unit)
PER_LAYER = [
    ("interferometer.apply_shot_noise.self_s", "s/item"),
    ("interferometer.apply_shot_noise.bins", "count/item"),
    ("interferometer.apply_shot_noise.rng_streams", "count/item"),
    ("interferometer.lock_loop_residual.self_s", "s/item"),
    ("interferometer.lock_loop_residual.steps", "count/item"),
    ("interferometer.fringe_trace.self_s", "s/item"),
    ("extraction.window_phasors.self_s", "s/item"),
    ("extraction.window_phasors.windows", "count/item"),
    ("extraction.estimate_path_length_fft.self_s", "s/item"),
    ("extraction.extract_phasor_series.self_s", "s/item"),
    ("emitter.phase_extrema_numeric.calls", "count/item"),
    ("emitter.phase_extrema_numeric.self_s", "s/item"),
    ("emitter.transmission.calls", "count/item"),
    ("emitter.transmission.points", "count/item"),
    ("emitter.transmission.self_s", "s/item"),
    ("lm.lm_minimize.self_s", "s/item"),
    ("lm.lm_minimize.iterations", "count/item"),
    ("lm.jacobian_fd.self_s", "s/item"),
    ("lm.residual_evals", "count/item"),
    ("lm.residual_evals_per_iter", "ratio"),
    ("spectra.fit_saturation_series.self_s", "s/item"),
    ("spectra.predict_phase_vs_power.self_s", "s/item"),
    ("spectra.fit_two_dipole_spectra.self_s", "s/item"),
    ("spectra.channel_model.calls", "count/item"),
    ("io.write_trace_csv.self_s", "s/item"),
    ("io.parse_trace_csv.self_s", "s/item"),
    ("io.parse_phasors_csv.self_s", "s/item"),
    ("io.ResultBundle.write_table.self_s", "s/item"),
    ("io.ResultBundle.finalize.self_s", "s/item"),
    ("io.bytes_written", "B/item"),
    ("io.bytes_read", "B/item"),
    ("config.load_config.self_s", "s/item"),
    ("cli.main.self_s", "s/item"),
    ("cli.cmd_simulate.self_s", "s/item"),
    ("cli.cmd_extract.self_s", "s/item"),
    ("cli.cmd_fit.self_s", "s/item"),
    ("cli.cmd_fit_saturation.self_s", "s/item"),
    ("cli.cmd_predict_chiral.self_s", "s/item"),
    ("trace.overhead_frac", "ratio"),
]


def _file_bytes(path) -> int:
    path = Path(path)
    sidecar = path.with_name(path.name + ".meta.json")
    return path.stat().st_size + (sidecar.stat().st_size if sidecar.exists() else 0)


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def counter_hooks(tracer: Tracer) -> dict:
    """Counters taken at the traced boundaries, keyed by traced function."""
    counts = tracer.counts

    def add(key, amount):
        counts[key] += amount

    def count_residual(args, kwargs):
        fun = args[0]

        def residual(x):
            counts["lm.residual_evals"] += 1
            return fun(x)

        return (residual, *args[1:]), kwargs

    def read_bytes(args, kwargs, result):
        add("io.bytes_read", _file_bytes(args[0]))

    return {
        "interferometer.apply_shot_noise": (None, lambda a, k, r: add(
            "interferometer.apply_shot_noise.bins", a[0].intensity.size)),
        "interferometer.lock_loop_residual": (None, lambda a, k, r: add(
            "interferometer.lock_loop_residual.steps", np.size(a[0]))),
        "extraction.window_phasors": (None, lambda a, k, r: add(
            "extraction.window_phasors.windows", len(r))),
        "emitter.transmission": (None, lambda a, k, r: add(
            "emitter.transmission.points", np.size(a[1] if len(a) > 1 else k["delta"]))),
        "lm.lm_minimize": (count_residual, lambda a, k, r: add(
            "lm.lm_minimize.iterations", r.n_iter)),
        "io.parse_trace_csv": (None, read_bytes),
        "io.parse_phasors_csv": (None, read_bytes),
    }


def philox_counter(tracer: Tracer):
    """Stand-in for ``numpy.random.Philox`` that counts constructions."""
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        tracer.counts["interferometer.apply_shot_noise.rng_streams"] += 1
        return philox(*args, **kwargs)

    return (np.random, "Philox", counting_philox)


class Runner:
    """Runs the items of one generated workload and accumulates their checks."""

    def __init__(self, workload: str, workdir: Path):
        from wgphase import cli

        self.cli = cli  # main is looked up per call, so a traced item runs the wrapper
        self.workload = workload
        self.workdir = workdir
        manifest = json.loads((workdir / "workload.json").read_text(encoding="utf-8"))
        self.items = manifest["items"]
        self.checks = workloads.Checks()

    def run(self, i: int, patcher: Patcher | None = None, count: bool = True) -> float:
        """Run input ``i`` once, traced when a patcher is given; return its
        wall time.  Checks count towards the run unless ``count`` is false."""
        item = self.items[i % len(self.items)]
        item_dir = self.workdir / item["dir"]
        out = self.workdir / "out" / f"run{i:05d}"
        argvs = workloads.commands(self.workload, item, item_dir, out)
        tracer = patcher.tracer if patcher is not None else None
        if patcher is not None:
            tracer.begin_item(i)
            patcher.install()
            root = tracer.open(tracer.intern("item"))
        t0 = perf_counter()
        ok = True
        try:
            for argv in argvs:
                if self.cli.main(argv) != 0:
                    ok = False
                    break
        finally:
            elapsed = perf_counter() - t0
            if patcher is not None:
                tracer.close(root)
                patcher.remove()
        checks = workloads.check(self.workload, item, out, ok)
        if count:
            self.checks.merge(checks)
        if patcher is not None and out.exists():
            tracer.counts["io.bytes_written"] += _tree_bytes(out)
        shutil.rmtree(out, ignore_errors=True)
        return elapsed


def layer_metrics(tracer: Tracer, n_items: int, plain_times, traced_times) -> dict:
    self_s = tracer.self_time_by_name()
    spans = np.bincount(tracer.arrays()["name_id"], minlength=len(tracer.names))
    counts = dict(tracer.counts)
    counts.update({f"{name}.calls": float(n) for name, n in zip(tracer.names, spans)})
    values = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_frac":
            values[name] = float(np.mean(traced_times) / np.mean(plain_times) - 1.0)
        elif name == "lm.residual_evals_per_iter":
            iters = counts.get("lm.lm_minimize.iterations", 0.0)
            values[name] = counts.get("lm.residual_evals", 0.0) / iters if iters else 0.0
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0) / n_items
        else:
            values[name] = counts.get(name, 0.0) / n_items
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--wall-limit", required=True, type=float,
                        help="stop starting items after this many wall seconds")
    args = parser.parse_args(argv)

    wall0 = perf_counter()
    runner = Runner(args.workload, args.workdir)
    runner.run(0, count=False)  # warm-up: lazy imports, first-call set-up

    def more(timed):
        return timed < args.seconds and perf_counter() - wall0 < args.wall_limit

    plain, traced = [], []
    i = 1
    if not args.trace:
        while more(sum(plain)):
            plain.append(runner.run(i))
            i += 1
        result = {"times": plain}
    else:
        tracer = Tracer()
        patcher = Patcher(tracer, counter_hooks(tracer), extra=[philox_counter(tracer)])
        while more(sum(plain) + sum(traced)):
            if i % 2:
                plain.append(runner.run(i))
                traced.append(runner.run(i, patcher))
            else:
                traced.append(runner.run(i, patcher))
                plain.append(runner.run(i))
            i += 1
        result = {"times": plain, "traced_times": traced,
                  "metrics": layer_metrics(tracer, len(traced), plain, traced)}
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            np.savez(args.spans, names=np.array(tracer.names), **tracer.arrays())
    result.update({
        "attempted": runner.checks.attempted, "failed": runner.checks.failed,
        "grid_edge_failed": runner.checks.grid_edge_failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    })
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
