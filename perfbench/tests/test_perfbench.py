"""Tests of the benchmark's own parts: tracer arithmetic, closed-form
references, generator determinism, check accounting and agreement with
BENCHMARK.json.

    python3 -m pytest perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import generate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import ROOT as NO_PARENT  # noqa: E402
from tracer import Patcher, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_union_of_children():
    # 0: parent [0, 10]; 1, 2 overlap ([1, 4] covered once); 3 runs past the
    # parent's end and counts only up to 10; 4 is a grandchild inside 1
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 4.0, 12.0, 2.5]
    parent = [NO_PARENT, 0, 0, 0, 1]
    own = self_times(start, end, parent)
    np.testing.assert_allclose(own, [10.0 - 3.0 - 2.0, 2.0 - 1.0, 2.0, 4.0, 1.0])


def test_self_time_of_synthetic_nested_call():
    tracer = Tracer()

    def leaf(x):
        return sum(range(x))

    traced_leaf = tracer.span("leaf", leaf)

    def middle(x):
        return traced_leaf(x) + traced_leaf(2 * x)

    traced_middle = tracer.span("middle", middle)
    outer = tracer.span("outer", lambda x: traced_middle(x) + traced_leaf(x))
    assert outer(2000) == 2 * sum(range(2000)) + sum(range(4000))

    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name_id"]]
    assert names == ["outer", "middle", "leaf", "leaf", "leaf"]
    assert spans["parent"].tolist() == [NO_PARENT, 0, 1, 1, 0]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    dur = spans["end"] - spans["start"]
    assert np.all(own >= 0.0)
    # self times partition the root span exactly
    assert own.sum() == pytest.approx(dur[0], rel=1e-12)
    assert own[1] == pytest.approx(dur[1] - dur[2] - dur[3], rel=1e-12)
    by_name = tracer.self_time_by_name()
    assert by_name["leaf"] == pytest.approx(dur[2] + dur[3] + dur[4], rel=1e-12)


def test_patcher_wraps_every_lookup_and_restores():
    import wgphase
    from wgphase import cli, emitter, interferometer, spectra

    originals = (interferometer.apply_shot_noise, emitter.transmission)
    tracer = Tracer()
    patcher = Patcher(tracer, worker.counter_hooks(tracer),
                      extra=[worker.philox_counter(tracer)])
    patcher.install()
    try:
        for fn in (cli.apply_shot_noise, interferometer.apply_shot_noise,
                   wgphase.apply_shot_noise):
            assert fn.__wrapped__ is originals[0]
        for fn in (spectra.transmission, emitter.transmission, wgphase.transmission):
            assert fn.__wrapped__ is originals[1]
        setup = interferometer.InterferometerConfig()
        p = emitter.EmitterParams.isotropic(12.3, beta=0.8, gamma_dp=3.9)
        trace = interferometer.fringe_trace(setup, p, np.linspace(-1.0, 1.0, 7), qd_on=True)
        interferometer.apply_shot_noise(trace, seed=3)
    finally:
        patcher.remove()
    assert (interferometer.apply_shot_noise, emitter.transmission) == originals
    assert cli.apply_shot_noise is originals[0] and spectra.transmission is originals[1]
    assert tracer.counts["interferometer.apply_shot_noise.bins"] == 7
    assert tracer.counts["interferometer.apply_shot_noise.rng_streams"] == 7
    assert tracer.counts["emitter.transmission.points"] == 7


def test_residual_evals_counted_through_lm():
    from wgphase import lm

    tracer = Tracer()
    patcher = Patcher(tracer, worker.counter_hooks(tracer))
    calls = []

    def residual(x):
        calls.append(1)
        return np.array([x[0] - 1.0, 2.0 * (x[1] + 0.5)])

    patcher.install()
    try:
        result = lm.lm_minimize(residual, [0.0, 0.0])
    finally:
        patcher.remove()
    assert result.converged
    assert tracer.counts["lm.residual_evals"] == len(calls) > 0
    assert tracer.counts["lm.lm_minimize.iterations"] == result.n_iter


@pytest.mark.parametrize("beta", [0.2, 0.5, 0.9])
def test_reference_isotropic_low_power_hand_value(beta):
    want = math.atan(beta / (2.0 * math.sqrt(1.0 - beta)))
    got = reference.phase_extremum_abs(12.3, 0.0, beta, 0.0, chiral=False)
    assert got == pytest.approx(want, rel=1e-14)


def test_reference_ideal_chiral_flips_by_pi():
    assert reference.phase_extremum_abs(7.0, 0.0, 1.0, 0.0, chiral=True) == math.pi


@pytest.mark.parametrize("beta, chiral", [(1.0, False), (0.5, True)])
def test_reference_c_zero_gives_half_pi(beta, chiral):
    assert reference.extremum_c(9.1, 0.0, beta, 0.0, chiral) == 0.0
    assert reference.phase_extremum_abs(9.1, 0.0, beta, 0.0, chiral) == math.pi / 2.0


def test_reference_range_opens_only_at_threshold():
    # beta_dir 0.9 switches at gamma_dp = 0.4*gamma, where c is zero only to
    # within rounding; one step away the closed form is sharp again
    gamma = 11.46323
    gdp = np.linspace(0.0, 2.0 * gamma, 121)[[23, 24, 25]]
    lo, hi = reference.phase_extremum_range(gamma, gdp, 0.9, 0.0, chiral=True)
    assert lo[1] == math.pi / 2.0 and hi[1] == math.pi
    assert lo[0] == hi[0] == math.pi
    assert lo[2] == hi[2] < math.pi / 2.0


def test_reference_closed_form_matches_dense_search():
    rng = np.random.default_rng(5)
    delta = np.linspace(1e-6, 60.0, 600001)
    for _ in range(20):
        gamma, gdp, beta, omega = rng.uniform(1, 10), rng.uniform(0, 5), rng.uniform(0.1, 1), \
            rng.uniform(0, 4)
        chiral = bool(rng.integers(2))
        if reference.extremum_c(gamma, gdp, beta, omega, chiral) <= 0:
            continue
        t, _ = reference.transmission(delta, gamma, gdp, beta, omega, chiral)
        want = reference.phase_extremum_abs(gamma, gdp, beta, omega, chiral)
        assert np.max(np.abs(np.angle(t))) == pytest.approx(want, abs=1e-8)


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(generate.WHY))
def test_generator_is_deterministic_under_seed(workload, tmp_path):
    a = generate.generate(workload, 4, tmp_path / "a", pool_size=3)
    b = generate.generate(workload, 4, tmp_path / "b", pool_size=3)
    c = generate.generate(workload, 5, tmp_path / "c", pool_size=3)
    assert a == b
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    assert a["why"] == generate.WHY[workload]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(generate.WHY)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == worker.PER_LAYER


def test_missing_or_short_output_fails_every_check(tmp_path):
    item = {"truth": {"gamma": 7.0, "beta_dirs": [1.0, 0.5], "points": 3}}
    n = 1 + 2 * 3 * 2
    assert workloads.check("chiral_scan", item, tmp_path, exit_ok=False).failed == n
    chiral = tmp_path / "chiral"
    chiral.mkdir()
    for name in ("phase_vs_omega.csv", "phase_vs_dephasing.csv"):
        (chiral / name).write_text("x,a,b\n0.0,3.141592653589793,1.5707963267948966\n")
    checks = workloads.check("chiral_scan", item, tmp_path, exit_ok=True)
    assert (checks.attempted, checks.failed, checks.grid_edge_failed) == (n, n, 0)
