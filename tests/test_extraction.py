from __future__ import annotations

import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest

from wgphase.emitter import EmitterParams, transmission
from wgphase.extraction import (ExtractionConfig, NoFringeError, WindowFits, _median,
                                _parabolic_offset, _ratio_err, _resolve_tie, _window_layout,
                                estimate_path_length_fft, extract_phasor_series, window_phasors)
from wgphase.interferometer import (FringeTrace, InterferometerConfig,
                                    apply_shot_noise, fringe_trace)
from wgphase.units import C_M_PER_S, TWO_PI, detuning_angular, wrap_angle

EMITTER = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0, phi0=-0.25)


def make_pair(delta_l=25.0, span=12.0, points=15001, p=EMITTER, visibility=0.65,
              phi_env=0.0):
    cfg = InterferometerConfig(delta_l_m=delta_l, visibility=visibility, p_lo_cps=1e6,
                               p_sig_cps=1e4, integration_time_s=0.1)
    freq = np.linspace(-span, span, points)
    on = fringe_trace(cfg, p, freq, qd_on=True, phi_env=phi_env)
    off = fringe_trace(cfg, p, freq, qd_on=False, phi_env=phi_env)
    return cfg, on, off


def test_fft_recovers_path_length():
    cfg, _, off = make_pair(delta_l=2.78, span=15.0, points=4501)
    est = estimate_path_length_fft(off)
    assert est == pytest.approx(2.78, rel=5e-3)


def test_fft_linearity_over_path_lengths():
    for dl in (0.5, 1.0, 2.0, 2.78, 5.0, 10.0):
        _, _, off = make_pair(delta_l=dl, span=15.0, points=6001)
        assert estimate_path_length_fft(off) == pytest.approx(dl, rel=5e-3)


def test_fft_constant_trace_rejected():
    trace = FringeTrace(freq=np.linspace(0, 1, 512), intensity=np.full(512, 10.0))
    with pytest.raises(NoFringeError):
        estimate_path_length_fft(trace)


def test_fft_two_component_returns_dominant():
    freq = np.linspace(-10, 10, 6000)
    c = 299792458.0
    main = 2.78
    theta1 = TWO_PI * freq * 1e9 * main / c
    theta2 = TWO_PI * freq * 1e9 * (main / 2) / c
    counts = 1e4 + 2e3 * np.cos(theta1) + 0.3 * 2e3 * np.cos(theta2)
    est = estimate_path_length_fft(FringeTrace(freq=freq, intensity=counts))
    assert est == pytest.approx(main, rel=5e-3)


def test_fft_tie_break_prefers_smaller_path():
    freq = np.linspace(-10, 10, 6000)
    c = 299792458.0
    theta1 = TWO_PI * freq * 1e9 * 3.0 / c
    theta2 = TWO_PI * freq * 1e9 * 1.5 / c
    counts = 1e4 + 2e3 * np.cos(theta1) + 2e3 * np.cos(theta2)
    with pytest.warns(RuntimeWarning, match="within 1%"):
        est = estimate_path_length_fft(FringeTrace(freq=freq, intensity=counts))
    assert est == pytest.approx(1.5, rel=5e-3)


_TIE_FREQ = np.linspace(-10, 10, 6000)
_BINS_PER_M = 48000 * (_TIE_FREQ[1] - _TIE_FREQ[0]) * 1e9 / C_M_PER_S  # padded length 48000


def _two_fringes(separation_bins):
    """Equal fringes of path length 1.5 m and 1.5 m plus ``separation_bins``
    padded FFT bins, both in phase at the centre of the sweep."""
    freq = _TIE_FREQ
    counts = 1e4
    for dl in (1.5, 1.5 + separation_bins / _BINS_PER_M):
        counts = counts + 2e3 * np.cos(TWO_PI * freq * 1e9 * dl / C_M_PER_S)
    return FringeTrace(freq=freq, intensity=counts)


@pytest.mark.parametrize("separation", [18, 19, 20, 22])
def test_fft_tie_between_peaks_17_to_24_padded_bins_apart(separation):
    # the main lobes pull the two magnitude peaks to 17, 19, 21 and 23 bins
    # apart, within 0.3 % of each other
    with pytest.warns(RuntimeWarning, match="within 1%"):
        est = estimate_path_length_fft(_two_fringes(separation))
    assert est == pytest.approx(1.5, rel=1e-3)


@pytest.mark.parametrize("separation", [8, 16, 17])
def test_fft_no_tie_between_peaks_16_padded_bins_apart_or_closer(separation):
    # one merged peak, or two peaks 11 and 15 bins apart: one fringe component
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_path_length_fft(_two_fringes(separation))
    assert 1.5 <= est <= 1.5 + separation / _BINS_PER_M


@pytest.mark.parametrize("gap, tie", [(16, False), (17, True), (24, True)])
def test_tie_rule_separates_peaks_more_than_16_bins_apart(gap, tie):
    mag = np.zeros(200)
    mag[100], mag[100 + gap] = 0.995, 1.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        winner = _resolve_tie(mag, 100 + gap)
    assert winner == (100 if tie else 100 + gap)
    assert len(caught) == tie


@pytest.mark.parametrize("size", [1, 2, 7, 8, 257, 1000])
def test_median_floor_is_numpys_median_bit_for_bit(size):
    rng = np.random.default_rng(size)
    base = rng.choice([0.0, -0.0, 1.5, 2.5, 3.0], size)  # ties and signed zeros
    spread = rng.exponential(3.0, size)
    cases = [base, spread, np.concatenate([base, spread])]
    for clean in list(cases):
        for specials in ([np.inf], [np.nan], [np.inf, np.nan]):
            dirty = clean.copy()
            dirty[rng.integers(dirty.size, size=len(specials))] = specials
            cases.append(dirty)
    for a in cases:
        want = np.median(a)
        got = _median(a)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (a, got, want)


def test_fft_nonuniform_grid_rejected():
    freq = np.sort(np.random.default_rng(0).uniform(0, 10, 500))
    trace = FringeTrace(freq=freq, intensity=np.cos(freq * 40) + 2)
    with pytest.raises(ValueError, match="uniform"):
        estimate_path_length_fft(trace)


def test_parabolic_offset_is_zero_where_no_parabola_fits():
    # a peak on the spectrum's edge, a neighbour of zero magnitude, three equal magnitudes
    mag = np.array([1.0, 2.0, 1.0])
    assert _parabolic_offset(mag, 0) == _parabolic_offset(mag, 2) == 0.0
    assert _parabolic_offset(np.array([0.0, 2.0, 1.0]), 1) == 0.0
    assert _parabolic_offset(np.array([2.0, 2.0, 2.0]), 1) == 0.0


def test_ratio_error_is_the_closed_form():
    # sqrt(var_num + (num/den)**2 * var_den) / |den|: a zero numerator read 0, and nan
    # with an overflow past var_num 1.8e8; a numerator of 1e-160 read 5e-11, not 0.5
    num = np.array([0.0, 0.0, 1e-160, 3.0, 1.0])
    var_num = np.array([0.25, 4e8, 0.25, 0.0, 1.0])
    den = np.array([2.0, 2.0, 1.0, 2.0, 0.0])
    var_den = np.array([1.0, 1.0, 1.0, 0.16, 1.0])
    with np.errstate(divide="ignore"):  # den == 0, as extract_phasor_series allows
        got = _ratio_err(num, var_num, den, var_den)
    np.testing.assert_allclose(got, [0.25, 1e4, 0.5, 0.3, np.inf], rtol=1e-15)


def test_self_comparison_is_identity():
    _, _, off = make_pair(delta_l=2.78, span=15.0, points=4501)
    series = extract_phasor_series(off, off, ExtractionConfig(delta_l_m=2.78))
    assert len(series) > 30
    for shift, amp, offset in zip(series.phase_shift, series.amp_ratio, series.offset_ratio):
        assert shift == pytest.approx(0.0, abs=1e-12)
        assert amp == pytest.approx(1.0, abs=1e-12)
        assert offset == pytest.approx(1.0, abs=1e-12)


def test_far_detuned_phase_vanishes():
    # resonance far outside the sweep: no emitter response left (the phase
    # tail falls off as (beta*gamma/2)/detuning, so "far" means detunings
    # large enough to push it below the 1e-6 target)
    p = EMITTER.with_(f0=-1e7, phi0=0.0)
    _, on, off = make_pair(delta_l=2.78, span=15.0, points=4501, p=p)
    series = extract_phasor_series(on, off, ExtractionConfig(delta_l_m=2.78))
    for shift, amp in zip(series.phase_shift, series.amp_ratio):
        assert abs(shift) < 1e-6
        assert amp == pytest.approx(1.0, abs=1e-6)


def test_noiseless_extraction_matches_model_pointwise():
    # window span (set by the fringe period at this path imbalance) keeps the
    # local-polynomial bias below 1e-6
    _, on, off = make_pair(delta_l=25.0, span=12.0, points=15001)
    series = extract_phasor_series(on, off, ExtractionConfig(delta_l_m=25.0))
    t, i_t = transmission(EMITTER, detuning_angular(series.freq, 0.0), 0.0)
    want_phase = wrap_angle(np.angle(t) + EMITTER.phi0)
    np.testing.assert_allclose(series.phase_shift, want_phase, atol=1e-6)
    np.testing.assert_allclose(series.amp_ratio, np.abs(t), atol=1e-6)
    np.testing.assert_allclose(series.offset_ratio, i_t, atol=5e-6)


def test_phase_shift_wrapped_range():
    # an ideal chiral emitter pushes the shift to +/- pi; outputs stay in (-pi, pi]
    p = EmitterParams.chiral(gamma=12.3, beta_dir=1.0, phi0=0.0)
    _, on, off = make_pair(delta_l=25.0, span=12.0, points=15001, p=p)
    shifts = extract_phasor_series(on, off, ExtractionConfig(delta_l_m=25.0)).phase_shift
    assert np.all(shifts > -np.pi) and np.all(shifts <= np.pi)
    assert np.max(np.abs(shifts)) > 3.0


def test_env_phase_2pi_invariance():
    _, on_a, off_a = make_pair(phi_env=0.4)
    _, on_b, off_b = make_pair(phi_env=0.4 + TWO_PI)
    pa = extract_phasor_series(on_a, off_a, ExtractionConfig(delta_l_m=25.0))
    pb = extract_phasor_series(on_b, off_b, ExtractionConfig(delta_l_m=25.0))
    for a, b in zip(pa.phase_shift, pb.phase_shift):
        assert a == pytest.approx(b, abs=1e-9)
    for a, b in zip(pa.amp_ratio, pb.amp_ratio):
        assert a == pytest.approx(b, abs=1e-9)


def test_constant_env_phase_shifts_window_phase():
    # each trace's fringe phase shifts by the environmental constant; the
    # on/off difference is unchanged
    shift = 0.6
    _, on_a, _ = make_pair(phi_env=0.0)
    _, on_b, _ = make_pair(phi_env=shift)
    wa = window_phasors(on_a, ExtractionConfig(delta_l_m=25.0))
    wb = window_phasors(on_b, ExtractionConfig(delta_l_m=25.0))
    for a, b in zip(wa.phase, wb.phase):
        assert wrap_angle(b - a) == pytest.approx(shift, abs=1e-7)


def test_grid_mismatch_rejected():
    _, on, _ = make_pair(points=15001)
    _, _, off = make_pair(points=14001)
    with pytest.raises(ValueError, match="share a frequency grid"):
        extract_phasor_series(on, off)


def test_low_contrast_flagged_not_dropped():
    # ideal coupling with no dephasing: fringe amplitude vanishes near
    # resonance, those windows must be flagged but present
    p = EmitterParams.isotropic(gamma=12.3, gamma_dp=0.0, beta=1.0, phi0=0.0)
    cfg = InterferometerConfig(delta_l_m=2.78, visibility=0.65, p_lo_cps=1e6, p_sig_cps=400.0,
                               integration_time_s=0.1)
    freq = np.linspace(-15, 15, 4501)
    on = fringe_trace(cfg, p, freq, qd_on=True)
    off = fringe_trace(cfg, p, freq, qd_on=False)
    series = extract_phasor_series(apply_shot_noise(on, 1), apply_shot_noise(off, 2),
                                   ExtractionConfig(delta_l_m=2.78))
    flagged = series.freq[series.low_contrast]
    assert flagged.size, "expected low-contrast windows near the extinction point"
    assert all(abs(f) < 1.5 for f in flagged)
    assert len(series) == len(extract_phasor_series(on, off, ExtractionConfig(delta_l_m=2.78)))


def test_window_must_cover_one_period():
    _, on, off = make_pair(points=4501)
    with pytest.raises(ValueError, match="at least one fringe period"):
        extract_phasor_series(on, off, ExtractionConfig(window_periods=0.5, delta_l_m=25.0))


def test_window_of_exactly_one_period_is_accepted():
    # the rule is at least one period: one period exactly is a window
    _, on, off = make_pair(points=4501)
    series = extract_phasor_series(on, off, ExtractionConfig(window_periods=1.0, delta_l_m=25.0))
    assert len(series) and np.all(np.isfinite(series.phase_shift))


def test_fringe_period_just_over_two_grid_steps_is_extracted():
    # the Nyquist rule refuses a fringe period under two grid steps, and only
    # that: at 2.1 steps the carrier is the trace's own, and the phasors are right
    span, points = 12.0, 15001
    df = 2.0 * span / (points - 1)
    delta_l = C_M_PER_S / (2.1 * df * 1e9)
    _, on, off = make_pair(delta_l=delta_l, span=span, points=points)
    series = extract_phasor_series(on, off, ExtractionConfig(delta_l_m=delta_l))
    t, _ = transmission(EMITTER, detuning_angular(series.freq, EMITTER.f0), 0.0)
    np.testing.assert_allclose(series.phase_shift, wrap_angle(np.angle(t) + EMITTER.phi0),
                               atol=1e-3)


def test_extraction_with_estimated_path_length():
    # delta_l defaults to the FFT estimate of the off trace; results must
    # match the known-path extraction closely
    _, on, off = make_pair(delta_l=2.78, span=15.0, points=4501)
    auto = extract_phasor_series(on, off)
    known = extract_phasor_series(on, off, ExtractionConfig(delta_l_m=2.78))
    assert len(auto) == len(known)
    for a, k in zip(auto.phase_shift, known.phase_shift):
        assert a == pytest.approx(k, abs=5e-4)
    for a, k in zip(auto.amp_ratio, known.amp_ratio):
        assert a == pytest.approx(k, abs=5e-4)


def window_phasors_loop(trace, delta_l, window_periods=3.0, hop_periods=None,
                        poly_order=2, weight_beta=12.0):
    """Test oracle for :func:`window_phasors`: one least-squares solve and one
    covariance per window, in the trace's own frequency coordinates."""
    if hop_periods is None:
        hop_periods = window_periods
    freq = trace.freq
    counts = trace.intensity
    period_ghz = C_M_PER_S / delta_l / 1e9
    df = float(np.mean(np.diff(freq)))
    min_pts = 2 * 3 * (poly_order + 1)
    pts_per_window = max(int(round(window_periods * period_ghz / df)), min_pts)
    hop = max(int(round(hop_periods * period_ghz / df)), 1)
    theta = 2.0 * np.pi * freq * 1e9 * delta_l / C_M_PER_S

    out = []
    start = 0
    while start + pts_per_window <= freq.size:
        sl = slice(start, start + pts_per_window)
        out.append(_fit_window(freq[sl], counts[sl], theta[sl], poly_order, weight_beta))
        start += hop
    return WindowFits(*(np.array(column) for column in zip(*out)), n_points=pts_per_window)


def _fit_window(freq, counts, theta, poly_order, weight_beta) -> tuple:
    """(freq, offset, amplitude, phase, var_offset, var_amplitude, var_phase)
    of one window."""
    center = 0.5 * (freq[0] + freq[-1])
    u = freq - center
    u = u / max(np.max(np.abs(u)), 1e-30)
    cols = [u**k for k in range(poly_order + 1)]
    cols += [np.cos(theta) * u**k for k in range(poly_order + 1)]
    cols += [-np.sin(theta) * u**k for k in range(poly_order + 1)]
    design = np.column_stack(cols)
    w = np.clip(np.kaiser(len(freq), weight_beta), 0.0, None)
    sw = np.sqrt(w)
    coef, _, _, _ = np.linalg.lstsq(design * sw[:, None], counts * sw, rcond=None)

    n, k = design.shape
    resid = counts - design @ coef
    a_mat = design.T @ (design * w[:, None])
    b_mat = design.T @ (design * (w * w)[:, None])
    c_mat = design.T @ design
    a_inv = np.linalg.pinv(a_mat)
    dof = max(n - 2 * k + float(np.trace(a_inv @ c_mat @ a_inv @ b_mat)), 1.0)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * (a_inv @ b_mat @ a_inv)

    i_a, i_p, i_q = 0, poly_order + 1, 2 * (poly_order + 1)
    a0, p, q = coef[i_a], coef[i_p], coef[i_q]
    amp = float(np.hypot(p, q))
    phase = float(np.arctan2(q, p))
    var_a = max(cov[i_a, i_a], 0.0)
    cpp, cqq, cpq = cov[i_p, i_p], cov[i_q, i_q], cov[i_p, i_q]
    if amp > 0:
        var_amp = max((p * p * cpp + q * q * cqq + 2 * p * q * cpq) / amp**2, 0.0)
        var_phase = max((q * q * cpp + p * p * cqq - 2 * p * q * cpq) / amp**4, 0.0)
    else:
        var_amp = max(cpp, cqq)
        var_phase = np.inf
    return (float(center), float(a0), amp, phase, float(var_a), float(var_amp),
            float(var_phase))


def test_shared_projector_matches_per_window_oracle():
    # every poly_order / hop / noise combination, with seeded window widths,
    # path imbalances, emitters (|t| >= 0.05, so every window has a phase) and
    # environmental phases
    rng = np.random.default_rng(2024)
    freq = np.linspace(-15.0, 15.0, 3001)
    cases = itertools.product(range(4), ("default", "half"), (False, True))
    for poly_order, hop, noisy in cases:
        window = float(rng.uniform(1.0, 5.0))
        delta_l = float(rng.uniform(1.0, 10.0))
        hop_periods = None if hop == "default" else window / 2
        p = EmitterParams.isotropic(gamma=float(rng.uniform(5.0, 20.0)),
                                    gamma_dp=float(rng.uniform(0.0, 5.0)),
                                    beta=float(rng.uniform(0.2, 0.95)),
                                    f0=float(rng.uniform(-5.0, 5.0)),
                                    phi0=float(rng.uniform(-np.pi, np.pi)))
        phi_env = float(rng.uniform(-np.pi, np.pi))
        cfg = InterferometerConfig(delta_l_m=delta_l)
        trace = fringe_trace(cfg, p, freq, qd_on=bool(rng.integers(2)), phi_env=phi_env)
        if noisy:
            trace = apply_shot_noise(trace, seed=int(rng.integers(2**31)))
        ext = ExtractionConfig(window_periods=window, hop_periods=hop_periods,
                               poly_order=poly_order, delta_l_m=delta_l)
        got = window_phasors(trace, ext)
        want = window_phasors_loop(trace, delta_l, window, hop_periods, poly_order)
        # a noiseless window the model fits to within solver rounding leaves a
        # residual (rms ~1e-8 of the counts or less) that two solves do not
        # share; its variances only have to agree to that floor
        floor = (1e-8 * np.max(trace.intensity)) ** 2
        label = (poly_order, hop, noisy, window, delta_l)
        assert len(got) == len(want) > 0, label
        for j in range(len(want)):
            assert got.freq[j] == want.freq[j] and got.n_points == want.n_points, label
            assert abs(wrap_angle(got.phase[j] - want.phase[j])) <= 1e-7, label
            assert got.amplitude[j] == pytest.approx(want.amplitude[j], rel=1e-7), label
            assert got.offset[j] == pytest.approx(want.offset[j], rel=1e-7), label
            assert got.var_offset[j] == pytest.approx(want.var_offset[j], rel=1e-5,
                                                      abs=floor), label
            assert got.var_amplitude[j] == pytest.approx(want.var_amplitude[j], rel=1e-5,
                                                         abs=floor), label
            assert got.var_phase[j] == pytest.approx(want.var_phase[j], rel=1e-5,
                                                     abs=floor / want.amplitude[j]**2), label


def _exact_unit_errors(design, sw) -> tuple:
    """Test oracle for a layout's ``cov_unit`` and ``dof``, in rational arithmetic on
    the float ``design`` and weights ``sw**2``: proj = (D^T W D)^-1 D^T W by Gauss-Jordan
    elimination, its covariance proj proj^T and ||I - D proj||_F**2, expanded as
    n - 2 tr(proj D) + tr(D^T D proj proj^T)."""
    n, k = design.shape
    d = [[Fraction(float(x)) for x in row] for row in design]
    w = [Fraction(float(s)) ** 2 for s in sw]
    dtw = [[d[i][j] * w[i] for i in range(n)] for j in range(k)]
    rows = [[sum(dtw[j][i] * d[i][m] for i in range(n)) for m in range(k)] + dtw[j]
            for j in range(k)]
    for c in range(k):  # [D^T W D | D^T W] -> [I | proj]
        pivot = next(r for r in range(c, k) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(k):
            if r != c and rows[r][c] != 0:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    proj = [row[k:] for row in rows]
    cov = [[sum(a * b for a, b in zip(proj[j], proj[m])) for m in range(k)] for j in range(k)]
    gram = [[sum(d[i][j] * d[i][m] for i in range(n)) for m in range(k)] for j in range(k)]
    dof = (n - 2 * sum(proj[j][i] * d[i][j] for j in range(k) for i in range(n))
           + sum(gram[j][m] * cov[m][j] for j in range(k) for m in range(k)))
    return np.array(cov, dtype=float), float(dof)


@pytest.mark.parametrize("window_periods, n", [(3.0, 49), (1.0, 18)])
def test_layout_unit_errors_match_exact_arithmetic(window_periods, n):
    # the default window, and a one-period window whose weighted design has
    # condition number 2.5e4: there the normal-matrix sandwich of a second
    # pseudo-inverse gave the dof 4.3e-7 and the covariance 5e-8 off
    cfg = ExtractionConfig(window_periods=window_periods, delta_l_m=2.78)
    lay = _window_layout(np.linspace(-15.0, 15.0, 4501), cfg)
    assert lay.n == n
    cov, dof = _exact_unit_errors(lay.design, np.sqrt(np.kaiser(n, cfg.weight_beta)))
    assert lay.dof == pytest.approx(dof, rel=1e-10)
    assert np.max(np.abs(lay.cov_unit - cov)) <= 1e-10 * np.max(np.abs(cov))


@pytest.mark.parametrize("kwargs, field", [
    ({"delta_l_m": 0.0}, "delta_l"),
    ({"delta_l_m": -2.78}, "delta_l"),
    ({"delta_l_m": np.nan}, "delta_l"),
    ({"delta_l_m": np.inf}, "delta_l"),
    ({"poly_order": -1}, "poly_order"),
    ({"window_periods": np.inf}, "window_periods"),
    ({"window_periods": np.nan}, "window_periods"),
    ({"hop_periods": np.inf}, "hop_periods"),
    ({"hop_periods": np.nan}, "hop_periods"),
    ({"hop_periods": 0.0}, "hop_periods"),
    ({"hop_periods": -1.0}, "hop_periods"),
    ({"weight_beta": np.nan}, "weight_beta"),  # was LinAlgError: SVD did not converge
    ({"weight_beta": np.inf}, "weight_beta"),  # was a numpy RuntimeWarning
])
def test_window_phasors_rejects_bad_parameters(kwargs, field):
    # the record rejects the value before any window is fitted; the message
    # leads with the field, which the config layer prefixes with "extraction."
    with pytest.raises(ValueError, match=f"^{field}"):
        ExtractionConfig(**{"delta_l_m": 2.78, **kwargs})


def test_null_path_length_is_the_traces_estimate():
    _, on, off = make_pair(delta_l=2.78, span=15.0, points=4501)
    resolved = ExtractionConfig(poly_order=1).with_path_length(off)
    assert resolved == ExtractionConfig(poly_order=1, delta_l_m=estimate_path_length_fft(off))
    assert resolved.with_path_length(on) is resolved
    got = window_phasors(on, ExtractionConfig())
    want = window_phasors(on, ExtractionConfig(delta_l_m=estimate_path_length_fft(on)))
    np.testing.assert_array_equal(got.phase, want.phase)
    # extract_phasor_series estimates from the off trace, for both traces
    auto = extract_phasor_series(on, off, ExtractionConfig(poly_order=1))
    np.testing.assert_array_equal(auto.phase_shift,
                                  extract_phasor_series(on, off, resolved).phase_shift)


def test_window_phasors_rejects_nonuniform_grid():
    # one shared projector would be wrong, not approximate, on such a grid
    _, on, _ = make_pair(delta_l=2.78, span=15.0, points=4501)
    freq = on.freq.copy()
    freq[2000:] += 0.5 * (freq[1] - freq[0])
    with pytest.raises(ValueError, match="uniform"):
        window_phasors(FringeTrace(freq=freq, intensity=on.intensity),
                       ExtractionConfig(delta_l_m=2.78))
