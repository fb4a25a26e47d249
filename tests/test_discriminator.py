import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellmeter.counts import CountRecord
from bellmeter.discriminator import optimal_prob, run_discriminator_sweep, success_prob_theory
from bellmeter.errors import InvalidNormalizationError, NoDataError
from bellmeter.experiment import ExperimentConfig
from bellmeter.polarization import overlap, prepare_elliptical

# frozen with mpmath at 40 digits
P_THEORY_24_20 = 0.3686289328451845
P_THEORY_36_0 = 0.4522542485937369
P_OPT_0_20 = 0.2339555568810220


def make_counts(c_pp=0, c_pm=0, c_mp=0, c_mm=0, sh=250):
    return CountRecord(
        c_pp=c_pp, c_pm=c_pm, c_mp=c_mp, c_mm=c_mm,
        sh_pp=sh, sh_pm=sh, sh_mp=sh, sh_mm=sh,
    )


def test_success_prob_theory_examples():
    assert success_prob_theory(0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert success_prob_theory(0.0, 45.0) == pytest.approx(0.5, abs=1e-12)
    assert abs(success_prob_theory(24.0, 20.0) - P_THEORY_24_20) < 1e-12
    assert abs(success_prob_theory(36.0, 0.0) - P_THEORY_36_0) < 1e-12


def test_success_prob_symmetric_about_45_degrees():
    for eps in (0.0, 12.0, 24.0, 36.0):
        for theta in np.arange(0.0, 46.0, 3.0):
            assert abs(
                success_prob_theory(eps, theta) - success_prob_theory(eps, 90.0 - theta)
            ) < 1e-12


def test_optimal_prob_examples():
    assert optimal_prob(0.0, 45.0) == pytest.approx(1.0, abs=1e-12)
    assert optimal_prob(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert abs(optimal_prob(0.0, 20.0) - P_OPT_0_20) < 1e-12


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))
def test_optimal_prob_equals_the_complex_overlap_bit_for_bit(eps, theta):
    plus, minus = prepare_elliptical(eps, theta, +1), prepare_elliptical(eps, theta, -1)
    assert optimal_prob(eps, theta) == 1.0 - abs(overlap(plus, minus))


def test_optimal_prob_equals_the_complex_overlap_on_the_default_grid():
    for eps in (0.0, 12.0, 24.0, 36.0):
        for theta in range(0, 91, 4):
            plus, minus = prepare_elliptical(eps, theta, +1), prepare_elliptical(eps, theta, -1)
            assert optimal_prob(eps, theta) == 1.0 - abs(overlap(plus, minus))
    # over the grid's arrays both theory curves give each point the bits of its own call
    eps, theta = np.repeat([0.0, 12.0, 24.0, 36.0], 23), np.tile(np.arange(0.0, 91.0, 4.0), 4)
    for curve in (success_prob_theory, optimal_prob):
        assert np.array_equal(curve(eps, theta), [curve(*point) for point in zip(eps.tolist(), theta.tolist())])


def test_optimal_prob_matches_real_parametrization_shortcut():
    for eps in (0.0, 12.0, 24.0, 36.0):
        for theta in np.arange(0.0, 91.0, 4.0):
            x, y = math.cos(math.radians(eps)), math.sin(math.radians(eps))
            a_sq = x**2 * math.cos(math.radians(theta)) ** 2 + y**2 * math.sin(math.radians(theta)) ** 2
            assert abs(optimal_prob(eps, theta) - (1.0 - abs(2 * a_sq - 1))) < 1e-12


def test_bell_analysis_never_beats_optimal():
    for eps in (0.0, 12.0, 24.0, 36.0):
        for theta in np.arange(0.0, 91.0, 4.0):
            p = success_prob_theory(eps, theta)
            p_opt = optimal_prob(eps, theta)
            assert p <= p_opt + 1e-12
            # equality only where |a|^2 hits 0, 1/2 or 1
            x, y = math.cos(math.radians(eps)), math.sin(math.radians(eps))
            a_sq = x**2 * math.cos(math.radians(theta)) ** 2 + y**2 * math.sin(math.radians(theta)) ** 2
            if min(abs(a_sq), abs(a_sq - 0.5), abs(a_sq - 1.0)) > 1e-9:
                assert p < p_opt - 1e-12


def test_estimate_success_arithmetic():
    counts = make_counts(c_pp=500, c_mm=500, sh=250)
    assert counts.estimates().p_succ == pytest.approx(0.5, abs=1e-15)

    counts = CountRecord(
        c_pp=400, c_pm=0, c_mp=0, c_mm=380,
        sh_pp=300, sh_mp=200, sh_mm=350, sh_pm=150,
    )
    assert counts.estimates().p_succ == pytest.approx(0.39, abs=1e-15)


def test_estimate_success_rejects_zero_shoulders():
    counts = CountRecord(c_pp=10, c_pm=0, c_mp=0, c_mm=10, sh_pp=0, sh_pm=0, sh_mp=0, sh_mm=0)
    with pytest.raises(InvalidNormalizationError):
        counts.normalized_rate(counts.c_pp, counts.c_mm)


def test_error_rate_arithmetic():
    assert make_counts(c_pp=100, c_mm=120).estimates().error_rate == 0.0
    counts = make_counts(c_pp=475, c_mm=475, c_mp=25, c_pm=25)
    assert counts.estimates().error_rate == pytest.approx(0.05, abs=1e-15)
    assert counts.estimates().error_rate_stderr == pytest.approx(
        math.sqrt(0.05 * 0.95 / 1000), abs=1e-15
    )


def test_error_rate_rejects_empty_counts():
    with pytest.raises(NoDataError):
        make_counts().wrong_class_rate()


def test_estimator_exact_on_infinite_statistics_counts():
    # counts built from the exact outcome probabilities (shoulder classes sum
    # to half the pair number) reproduce the theory value up to rounding
    from bellmeter.analyzer import AnalyzerConfig, ideal_outcome_probs
    from bellmeter.polarization import prepare_elliptical
    from bellmeter.twophoton import tensor

    n = 10**9
    cfg = AnalyzerConfig()
    for eps, theta in [(0.0, 30.0), (24.0, 20.0), (36.0, 60.0)]:
        program = prepare_elliptical(eps, theta, +1)
        p_plus = ideal_outcome_probs(tensor(prepare_elliptical(eps, theta, +1), program), cfg)
        p_minus = ideal_outcome_probs(tensor(prepare_elliptical(eps, theta, -1), program), cfg)
        counts = CountRecord(
            c_pp=round(p_plus.psi_plus * n), c_mp=round(p_plus.psi_minus * n),
            c_pm=round(p_minus.psi_plus * n), c_mm=round(p_minus.psi_minus * n),
            sh_pp=n // 4, sh_mp=n // 4, sh_pm=n // 4, sh_mm=n // 4,
        )
        assert counts.estimates().p_succ == pytest.approx(
            success_prob_theory(eps, theta), abs=1e-9
        )


def test_estimate_on_monte_carlo_ideal_point():
    cfg = ExperimentConfig.ideal(seed=42)
    pts = run_discriminator_sweep([0.0], [45.0], cfg, pairs_per_point=100_000)
    pt = pts[0]
    assert abs(pt.p_estimated - 0.5) <= 3 * pt.p_stderr
    assert pt.error_rate == 0.0


def test_error_rate_positive_and_decreasing_in_mode_overlap():
    from dataclasses import replace

    from bellmeter.analyzer import AnalyzerConfig

    rates = []
    for m in (0.8, 0.9, 0.95, 1.0):
        cfg = replace(
            ExperimentConfig.ideal(seed=314), analyzer=AnalyzerConfig(mode_overlap=m)
        )
        pts = run_discriminator_sweep([0.0], [30.0], cfg, pairs_per_point=200_000)
        rates.append(pts[0].error_rate)
    assert rates[0] > 0 and rates[1] > 0 and rates[2] > 0
    assert rates[3] == 0.0
    assert rates[0] >= rates[1] >= rates[2] >= rates[3]


def test_sweep_fills_every_field_and_survives_empty_corner():
    # theta = 0 with no jitter yields no conclusive events: the error rate is
    # NaN for that point but the sweep must not abort
    cfg = ExperimentConfig.ideal(seed=5)
    pts = run_discriminator_sweep([0.0, 36.0], [0.0, 45.0], cfg, pairs_per_point=20_000)
    assert len(pts) == 4
    by_key = {(pt.epsilon, pt.theta): pt for pt in pts}
    corner = by_key[(0.0, 0.0)]
    assert math.isnan(corner.error_rate)
    assert corner.p_estimated == pytest.approx(0.0, abs=1e-3)
    assert abs(by_key[(36.0, 0.0)].p_theory - P_THEORY_36_0) < 1e-12
    mid = by_key[(0.0, 45.0)]
    assert abs(mid.p_estimated - 0.5) <= 3 * mid.p_stderr
    assert mid.error_rate == 0.0


def test_sweep_empty_grid():
    cfg = ExperimentConfig.ideal()
    assert run_discriminator_sweep([], [0.0], cfg) == []
    assert run_discriminator_sweep([0.0], [], cfg) == []


def test_sweep_deterministic_for_fixed_seed():
    cfg = ExperimentConfig.ideal(seed=2024)
    a = run_discriminator_sweep([12.0], [20.0, 40.0], cfg, pairs_per_point=50_000)
    b = run_discriminator_sweep([12.0], [20.0, 40.0], cfg, pairs_per_point=50_000)
    assert a == b
