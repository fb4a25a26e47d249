import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

from bellmeter.analyzer import (
    AnalyzerConfig,
    distinguishable_outcome_probs,
    ideal_outcome_probs,
    outcome_probs_batch,
)
from bellmeter.errors import SchemaViolationError
from bellmeter.experiment import (
    ClassCounts,
    CountRecord,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    hom_scan,
    mode_overlap_at,
    run_full_experiment,
    shoulder_counts,
    simulate_counts,
    with_pairs_per_point,
)
from bellmeter.polarization import prepare_elliptical, prepare_from_recipe, recipe_discriminator
from bellmeter.twophoton import tensor

SHOULDER_RESIDUAL_35 = 1.0270256462135618e-4  # exp(-150^2 / (2*35^2))


def ideal(seed=1, pairs=100_000):
    return ExperimentConfig.ideal(pair_rate=pairs / 10.0, seed=seed)


def test_mode_overlap_profile():
    cfg = ideal()
    assert mode_overlap_at(0.0, cfg) == cfg.analyzer.mode_overlap
    assert mode_overlap_at(1e6, cfg) == pytest.approx(0.0, abs=1e-300)
    cfg92 = replace(cfg, analyzer=AnalyzerConfig(mode_overlap=0.92))
    assert mode_overlap_at(150.0, cfg92) == pytest.approx(0.92 * SHOULDER_RESIDUAL_35, rel=1e-12)
    # effectively distinguishable once sigma <= shoulder/3
    assert mode_overlap_at(150.0, cfg92) <= 0.01 * 0.92


def test_simulate_counts_ideal_convergence():
    cfg = ideal(seed=31, pairs=1_000_000)
    data = recipe_discriminator(0.0, 45.0, +1)
    program = recipe_discriminator(0.0, 45.0, +1)
    counts = simulate_counts(data, program, 0.0, cfg, np.random.default_rng(31))
    total = cfg.pair_rate * cfg.period * cfg.repetitions
    assert abs(counts.psi_plus / total - 0.5) < 4 * math.sqrt(0.25 / total)
    assert counts.psi_minus == 0


def test_simulate_counts_zero_pair_rate():
    cfg = replace(ideal(seed=2), pair_rate=0.0)
    counts = simulate_counts(
        recipe_discriminator(0, 45, 1), recipe_discriminator(0, 45, 1), 0.0, cfg
    )
    assert counts == ClassCounts(0, 0)


def test_dark_counts_alone_can_fire():
    cfg = replace(
        ideal(seed=6),
        pair_rate=0.0,
        dark_count_rate=2e5,
        coincidence_window=1e-6,
    )
    counts = simulate_counts(
        recipe_discriminator(0, 45, 1), recipe_discriminator(0, 45, 1), 0.0, cfg
    )
    assert counts.psi_plus > 0 and counts.psi_minus > 0


def test_dark_accidentals_scale_quadratically():
    # doubling the dark rate quadruples the accidental coincidence rate
    means = []
    for rate in (1e5, 2e5, 4e5):
        cfg = replace(
            ideal(seed=9), pair_rate=0.0, dark_count_rate=rate, coincidence_window=1e-6,
            repetitions=50,
        )
        counts = simulate_counts(
            recipe_discriminator(0, 45, 1), recipe_discriminator(0, 45, 1), 0.0, cfg,
            np.random.default_rng(9),
        )
        means.append(counts.psi_plus + counts.psi_minus)
    expected = cfg.coincidence_window * 50 * 4  # 4 recorded detector pairs, per rate^2
    for rate, observed in zip((1e5, 2e5, 4e5), means):
        lam = rate**2 * expected
        assert abs(observed - lam) < 5 * math.sqrt(lam)
    assert means[1] / means[0] == pytest.approx(4.0, rel=0.2)
    assert means[2] / means[1] == pytest.approx(4.0, rel=0.2)


def test_detector_efficiency_quarters_coincidences():
    data = recipe_discriminator(0.0, 45.0, +1)
    program = recipe_discriminator(0.0, 45.0, +1)
    full = simulate_counts(data, program, 0.0, ideal(seed=12, pairs=400_000),
                           np.random.default_rng(12))
    half_cfg = replace(ideal(seed=12, pairs=400_000), detector_efficiency=0.5)
    half = simulate_counts(data, program, 0.0, half_cfg, np.random.default_rng(12))
    ratio = half.psi_plus / full.psi_plus
    assert abs(ratio - 0.25) < 0.01


def test_simulate_counts_deterministic():
    cfg = ideal(seed=77)
    data = recipe_discriminator(12.0, 30.0, +1)
    program = recipe_discriminator(12.0, 30.0, +1)
    a = simulate_counts(data, program, 0.0, cfg, np.random.default_rng(77))
    b = simulate_counts(data, program, 0.0, cfg, np.random.default_rng(77))
    assert a == b


def test_empirical_frequencies_match_ideal_probs_random_settings():
    from bellmeter.analyzer import ideal_outcome_probs
    from bellmeter.polarization import PrepRecipe, prepare_from_recipe

    rng = np.random.default_rng(2025)
    cfg = ideal(seed=2025, pairs=1_000_000)
    total = cfg.pair_rate * cfg.period * cfg.repetitions
    for _ in range(20):
        data_recipe = PrepRecipe(rng.uniform(-90, 90), rng.uniform(-90, 90))
        prog_recipe = PrepRecipe(rng.uniform(-90, 90), rng.uniform(-90, 90))
        counts = simulate_counts(data_recipe, prog_recipe, 0.0, cfg, rng)
        state = tensor(prepare_from_recipe(data_recipe), prepare_from_recipe(prog_recipe))
        probs = ideal_outcome_probs(state, cfg.analyzer)
        for observed, p in ((counts.psi_plus, probs.psi_plus), (counts.psi_minus, probs.psi_minus)):
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / total)
            assert abs(observed / total - p) <= 4 * sigma


def test_shoulder_quarters_for_balanced_splitter():
    cfg = ideal(seed=21, pairs=1_000_000)
    counts = shoulder_counts(+1, cfg, np.random.default_rng(21))
    total = cfg.pair_rate * cfg.period * cfg.repetitions
    sigma = math.sqrt(0.25 * 0.75 / total)
    assert abs(counts.psi_plus / total - 0.25) < 4 * sigma
    assert abs(counts.psi_minus / total - 0.25) < 4 * sigma


def test_shoulder_sum_immune_to_splitting_imbalance():
    cfg = replace(
        ideal(seed=22, pairs=1_000_000),
        analyzer=AnalyzerConfig(transmittance_h=0.7, transmittance_v=0.4),
    )
    counts = shoulder_counts(+1, cfg, np.random.default_rng(22))
    total = cfg.pair_rate * cfg.period * cfg.repetitions
    # individual classes deviate from 1/4 ...
    assert abs(counts.psi_plus / total - 0.25) > 0.01
    # ... but their sum stays at 1/2 of the pair rate
    assert abs((counts.psi_plus + counts.psi_minus) / total - 0.5) < 4 * math.sqrt(0.25 / total)


def test_shoulder_matches_distinguishable_probabilities_at_zero_overlap():
    cfg = replace(
        ideal(seed=23, pairs=500_000),
        analyzer=AnalyzerConfig(transmittance_h=0.55, transmittance_v=0.5, mode_overlap=0.0),
    )
    counts = shoulder_counts(+1, cfg, np.random.default_rng(23))
    state = tensor(prepare_elliptical(0, 45, +1), prepare_elliptical(0, 45, +1))
    probs = distinguishable_outcome_probs(state, cfg.analyzer)
    total = cfg.pair_rate * cfg.period * cfg.repetitions
    for observed, p in ((counts.psi_plus, probs.psi_plus), (counts.psi_minus, probs.psi_minus)):
        assert abs(observed / total - p) < 4 * math.sqrt(p * (1 - p) / total)


def test_hom_scan_reaches_zero_at_dip_for_full_overlap():
    cfg = ideal(seed=41, pairs=200_000)
    result = hom_scan(np.arange(-150.0, 151.0, 15.0), cfg)
    at_zero = np.argmin(np.abs(result.positions))
    shoulder_level = result.rate_mp[0]
    assert result.rate_mp[at_zero] < 0.01 * shoulder_level
    assert result.visibility is not None
    assert abs(result.visibility - 1.0) < 0.02


def test_hom_scan_fitted_visibility_tracks_mode_overlap():
    cfg = replace(
        ideal(seed=42, pairs=200_000), analyzer=AnalyzerConfig(mode_overlap=0.92)
    )
    result = hom_scan(np.arange(-150.0, 151.0, 10.0), cfg)
    assert result.visibility is not None
    assert abs(result.visibility - 0.92) <= 0.02


def test_hom_scan_shoulder_only_positions():
    cfg = ideal(seed=43, pairs=400_000)
    result = hom_scan([150.0], cfg)
    assert result.visibility is None
    duration = cfg.repetitions * cfg.period
    total_rate = cfg.pair_rate
    for rate in (result.rate_pp[0], result.rate_mp[0], result.rate_pm[0], result.rate_mm[0]):
        assert abs(rate / total_rate - 0.25) < 4 * math.sqrt(0.25 / (total_rate * duration))


def test_run_full_experiment_discriminator_matches_theory():
    cfg = ExperimentConfig.ideal(seed=50)
    ds = run_full_experiment(
        "discriminator", cfg, epsilons=[24.0], thetas=[20.0, 60.0], pairs_per_point=200_000
    )
    assert len(ds.rows) == 2
    cols = {name: idx for idx, name in enumerate(ds.columns)}
    for row in ds.rows:
        assert abs(row[cols["p_estimated"]] - row[cols["p_theory"]]) <= 3 * row[cols["p_stderr"]]
        assert row[cols["error_rate"]] == 0.0


def test_run_full_experiment_empty_grid():
    cfg = ExperimentConfig.ideal()
    ds = run_full_experiment("discriminator", cfg, epsilons=[], thetas=[], pairs_per_point=100)
    assert ds.rows == []
    with pytest.raises(ValueError):
        run_full_experiment("bogus", cfg)


def test_with_pairs_per_point():
    cfg = ExperimentConfig.ideal()
    adjusted = with_pairs_per_point(cfg, 123_456.0)
    assert adjusted.pair_rate * adjusted.period * adjusted.repetitions == pytest.approx(123_456.0)


def test_count_record_validation():
    with pytest.raises(ValueError):
        CountRecord(c_pp=-1, c_pm=0, c_mp=0, c_mm=0, sh_pp=0, sh_pm=0, sh_mp=0, sh_mm=0)
    rec = CountRecord(c_pp=1, c_pm=2, c_mp=3, c_mm=4, sh_pp=5, sh_pm=6, sh_mp=7, sh_mm=8)
    assert rec.conclusive_total == 10


def test_config_roundtrip_and_schema_errors():
    cfg = ExperimentConfig.realistic(seed=7)
    data = config_to_dict(cfg)
    back = config_from_dict(data)
    assert back == cfg
    with pytest.raises(SchemaViolationError):
        config_from_dict({"pair_rate": 1.0, "bogus_knob": 3})
    with pytest.raises(SchemaViolationError):
        config_from_dict({"analyzer": {"transmittance_x": 0.5}})


def test_config_accepts_detector_map_override():
    cfg = config_from_dict({"analyzer": {"detector_map": ["D4", "D2", "D1", "D3"]}})
    assert cfg.analyzer.detector_map == ("D4", "D2", "D1", "D3")
    with pytest.raises(ValueError):
        config_from_dict({"analyzer": {"detector_map": ["D1", "D1", "D2", "D3"]}})


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ExperimentConfig(detector_efficiency=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(dip_sigma=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(repetitions=0)


def test_counts_are_independent_poisson_with_the_analytic_mean():
    # Poisson thinning: each class count is Poisson with mean
    # eff^2 * pairs * (p_class + (1 - eta)/2 * p_inconclusive) + 2 dark accidentals per period
    n_calls, eta = 2000, 0.5
    cfg = replace(
        ExperimentConfig.realistic(pair_rate=200.0),
        angle_jitter=0.0,
        dark_count_rate=1000.0,
        coincidence_window=1e-5,
    )
    data = recipe_discriminator(24.0, 20.0, +1)
    program = recipe_discriminator(24.0, 70.0, -1)
    rng = np.random.default_rng(2024)
    counts = np.array(
        [simulate_counts(data, program, 0.0, cfg, rng, eta=eta) for _ in range(n_calls)], dtype=float
    )

    state = tensor(prepare_from_recipe(data), prepare_from_recipe(program))
    m = cfg.analyzer.mode_overlap
    quantum = ideal_outcome_probs(state, cfg.analyzer)
    classical = distinguishable_outcome_probs(state, cfg.analyzer)
    probs = [m * q + (1.0 - m) * c for q, c in zip(quantum, classical)]
    pairs = cfg.pair_rate * cfg.period * cfg.repetitions
    dark = 2.0 * cfg.dark_count_rate**2 * cfg.coincidence_window * cfg.period * cfg.repetitions
    relabeled = (1.0 - eta) / 2.0 * probs[2]
    expected = [cfg.detector_efficiency**2 * pairs * (p + relabeled) + dark for p in probs[:2]]

    low, high = chi2.ppf([0.0005, 0.9995], n_calls - 1)
    for column, lam in zip(counts.T, expected):
        assert abs(column.mean() - lam) <= 4.0 * math.sqrt(lam / n_calls)
        dispersion = (n_calls - 1) * column.var(ddof=1) / column.mean()
        assert low <= dispersion <= high
    assert abs(np.corrcoef(counts.T)[0, 1]) <= 4.0 / math.sqrt(n_calls)


@pytest.mark.parametrize("broken", [lambda p: p * 1.001, lambda p: np.full_like(p, np.nan)])
def test_broken_class_probabilities_raise(monkeypatch, broken):
    monkeypatch.setattr(
        "bellmeter.experiment.outcome_probs_batch",
        lambda *args: broken(outcome_probs_batch(*args)),
    )
    with pytest.raises(ValueError, match="sum to 1"):
        simulate_counts(
            recipe_discriminator(0, 45, 1), recipe_discriminator(0, 45, 1), 0.0, ideal(seed=3)
        )


@pytest.mark.parametrize(
    "bad",
    [
        {"pair_rate": math.nan},
        {"period": math.inf},
        {"shoulder_position": math.nan},
        {"coincidence_window": -math.inf},
        {"angle_jitter": "1.0"},
        {"repetitions": 2.5},
        {"repetitions": True},
        {"seed": 1.5},
    ],
)
def test_config_rejects_non_finite_and_mistyped_values(bad):
    with pytest.raises(ValueError):
        ExperimentConfig(**bad)


@pytest.mark.parametrize(
    "analyzer",
    [
        {"transmittance_h": 0.0},
        {"transmittance_v": 1.0},
        {"mode_overlap": math.nan},
        {"geometric_phase": "false"},
        {"detector_map": "D1D2D3D4"},
        [0.5],
    ],
)
def test_config_rejects_bad_analyzer_at_construction(analyzer):
    with pytest.raises(ValueError):
        config_from_dict({"analyzer": analyzer})
