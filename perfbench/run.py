"""wgphase benchmark: one seeded workload, measured for a fixed time.

    python3 perfbench/run.py --workload fringe_roundtrip --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; wgphase is imported from ``src``.
Steps: generate the workload's inputs from ``--seed`` (``generate.py``),
time set-up in fresh interpreters, run the workload closed-loop in one
worker process (``worker.py``), check every output against the generator's
truth and the closed forms in ``reference.py``, and print the metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.

``attempted``/``failed`` count checks, so failed/attempted is the run's
failure fraction.  ``correct`` is false when any check fails except those
on extrema whose optimum lies past the program's search grid: that known
defect is counted in ``failed`` and reported, not gated on.

Temporary inputs live in ``.perfbench_work/`` and are removed at exit;
traced runs leave their spans in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import generate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 9
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0
SETUP_SNIPPET = ("import sys\n"
                 "from wgphase.cli import main\n"
                 "from wgphase.config import load_config\n"
                 "load_config(sys.argv[1])\n")

END_TO_END = [("setup_s", "s"), ("items_per_s", "1/s"), ("item_p50_s", "s"),
              ("peak_rss_mb", "MB")]


def bench_env() -> dict:
    """Environment of every process that runs wgphase: the checkout's
    sources first on the path, and a fixed BLAS thread count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def measure_setup(config: Path, env: dict) -> float:
    """Median wall time of a fresh interpreter importing wgphase and loading
    the workload's config.  One untimed run first writes the bytecode cache.

    The wait blocks in waitpid: ``Popen.wait(timeout)`` polls in sleeps of up
    to 50 ms, which would quantise the samples, so a timer thread enforces
    the time limit instead."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET, str(config)]
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            returncode = proc.wait()
        finally:
            watchdog.cancel()
        elapsed = perf_counter() - t0
        if returncode != 0:
            raise RuntimeError(f"set-up interpreter exited with {returncode}")
        if k:
            samples.append(elapsed)
    return statistics.median(samples)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="wgphase benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(generate.WHY))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    t_start = perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "wgphase" / "__init__.py").is_file():
        print(f"perfbench: no wgphase sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = bench_env()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=work_root))
    try:
        manifest = generate.generate(args.workload, args.seed, workdir)
        first_config = workdir / manifest["items"][0]["dir"] / manifest["items"][0]["config"]
        setup_s = measure_setup(first_config, env) if not args.trace else None
        result_path = workdir / "result.json"
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
               "--workdir", str(workdir), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--result", str(result_path),
               "--wall-limit", str(max(RUN_LIMIT_S - 20.0 - (perf_counter() - t_start), 1.0))]
        if args.trace:
            cmd += ["--spans", str(ROOT / ".perfbench_out"
                                   / f"spans-{args.workload}-s{args.seed}.npz")]
        timeout = RUN_LIMIT_S - (perf_counter() - t_start)
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=timeout)
        if proc.returncode != 0:
            print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(result_path.read_text(encoding="utf-8"))
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = res["times"]
    if args.trace:
        metrics = res["metrics"]
    else:
        values = {"setup_s": setup_s, "items_per_s": len(times) / sum(times),
                  "item_p50_s": statistics.median(times), "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    failed, grid_edge = res["failed"], res["grid_edge_failed"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} items={len(times)} "
          f"blas_threads={res['blas_threads']} checks={res['attempted']} failed={failed} "
          f"(grid-edge {grid_edge}) failed_frac={failed / res['attempted']:.6g}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == grid_edge, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
