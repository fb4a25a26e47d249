import importlib
import json
import math
import pkgutil
import re
from collections import Counter
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import bellmeter
from bellmeter.analyzer import (
    AnalyzerConfig,
    _PROB_FLOOR,
    distinguishable_outcome_probs,
    ideal_outcome_probs,
    stokes_outcome_probs,
)
from bellmeter.counts import (
    COUNT_COLUMNS,
    CountRecord,
    DiscriminationPoint,
    Estimates,
    MultimeterPoint,
    estimate_table,
    first_bad_count,
)
from bellmeter.errors import InvalidNormalizationError, NoDataError, SchemaViolationError
from bellmeter.experiment import (
    ClassCounts,
    ExperimentConfig,
    _accidentals,
    _fit_visibility,
    _poisson_means,
    check_eta,
    config_from_dict,
    hom_scan,
    hom_scan_blocks,
    mode_overlap_at,
    shoulder_counts,
    simulate_counts,
    sweep_blocks,
    with_pairs_per_point,
)
from bellmeter.discriminator import run_discriminator_sweep
from bellmeter.multimeter import run_multimeter_sweep
from bellmeter.polarization import (
    discriminator_angles,
    multimeter_angles,
    prepare_elliptical,
    prepare_from_recipe,
    recipe_discriminator,
    recipe_multimeter,
    stokes_from_angles,
)
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
    # an array of positions gives each position the bits of its own call
    positions = np.array([0.0, cfg92.shoulder_position, -cfg92.shoulder_position, 1e6])
    assert np.array_equal(mode_overlap_at(positions, cfg92), [mode_overlap_at(x, cfg92) for x in positions.tolist()])


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


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    positions=st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=6),
    jitter=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
    repetitions=st.integers(1, 4),
    pairs=st.sampled_from([20.0, 20_000.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_hom_scan_stages_draw_from_their_spawned_streams(positions, jitter, repetitions, pairs, seed):
    # the (45, 45) and (-45, 45) stages jitter from spawned streams 0 and 2 and
    # count from streams 1 and 3, in position order: blocks change no draw, and
    # the first k positions of a scan are the scan of those k positions
    cfg = replace(
        with_pairs_per_point(ExperimentConfig.realistic(seed=seed), pairs),
        repetitions=repetitions, angle_jitter=jitter,
    )
    inputs = sweep_angles([tuple(recipe_discriminator(0.0, 45.0, sign) for sign in (+1, -1, +1))])
    inputs = np.repeat(inputs, len(positions), axis=0)
    stages = [(inputs[:, [k, 2]], positions, 1.0) for k in (0, 1)]
    expected = staged_reference(stages, cfg) / (cfg.repetitions * cfg.period)

    def rates(result):
        return np.column_stack([result.rate_pp, result.rate_mp, result.rate_pm, result.rate_mm])

    for block_periods in (1, 6, 4096):
        with patch("bellmeter.experiment._MAX_STAGE_PERIODS", block_periods):
            result = hom_scan(positions, cfg)
        assert result.positions.tolist() == positions
        assert np.array_equal(rates(result), expected)
    for k in range(1, len(positions)):
        assert np.array_equal(rates(hom_scan(positions[:k], cfg)), expected[:k])


def test_hom_scan_analyzes_once_per_input(monkeypatch):
    # both inputs of the scan, all positions and periods, in one analyzer call
    calls = []

    def counting(*args):
        calls.append(len(args[0]))
        return stokes_outcome_probs(*args)

    monkeypatch.setattr("bellmeter.experiment.stokes_outcome_probs", counting)
    hom_scan(np.arange(-200.0, 201.0, 10.0), ExperimentConfig(seed=1))
    assert calls == [2 * 41 * 10]


@pytest.mark.parametrize("mode_overlap", [1.0, 0.92, 0.5, 0.1])
def test_hom_scan_fit_matches_curve_fit(mode_overlap):
    from scipy.optimize import curve_fit

    def model(x, amp, vis, sig):
        return amp * (1.0 - vis * np.exp(-(x**2) / (2.0 * sig**2)))

    for seed in range(3):
        cfg = replace(
            with_pairs_per_point(ExperimentConfig(seed=seed), 100_000),
            analyzer=AnalyzerConfig(mode_overlap=mode_overlap),
        )
        result = hom_scan(np.arange(-200.0, 201.0, 10.0), cfg)
        for rates, got in zip((result.rate_mp, result.rate_pm), result.curve_visibilities):
            p0 = (rates.max(), 0.9, cfg.dip_sigma)
            want = curve_fit(model, result.positions, rates, p0=p0, maxfev=20_000)[0][1]
            assert abs(got - want) <= 1e-6


def test_hom_scan_fit_finds_the_lowest_of_several_minima():
    # at 1e3 pairs and a 0.1 overlap the rate_mp residual over the dip width has
    # several minima; a search from the middle of the interval stopped at its
    # upper end (V = 0.127, residual 15.78 against 15.46 at s = 3.5)
    cfg = replace(
        with_pairs_per_point(ExperimentConfig(seed=16), 1e3), analyzer=AnalyzerConfig(mode_overlap=0.1)
    )
    result = hom_scan(np.arange(-200.0, 201.0, 10.0), cfg)
    positions, rates = result.positions, result.rate_mp

    def residual(width):
        dip = np.exp(-(positions**2) / (2.0 * width**2))
        design = np.column_stack([np.ones_like(dip), -dip])
        coef = np.linalg.lstsq(design, rates, rcond=None)[0]
        return np.sum((design @ coef - rates) ** 2)

    widths = np.geomspace(cfg.dip_sigma / 10.0, 10.0 * cfg.dip_sigma, 4000)
    best = min(residual(w) for w in widths)
    visibility, fit_residual = _fit_visibility(positions, rates, cfg.dip_sigma)
    assert fit_residual <= best * (1.0 + 1e-9)
    assert result.curve_visibilities[0] == visibility


@pytest.mark.parametrize("positions", [[0.0] * 4, [35.0] * 5, [-12.5] * 7])
def test_hom_scan_fit_of_equal_positions_is_undetermined(positions):
    # every dip width gives one dip value at all positions, so A and V are undetermined
    result = hom_scan(positions, ideal(seed=44, pairs=10_000))
    assert result.visibility is None and result.curve_visibilities == ()


def test_dip_fit_divides_the_rates_by_their_largest():
    # rates near the float range leave V as it is, and warn of no overflow
    positions = np.arange(-200.0, 201.0, 10.0)
    rates = 1e3 * (1.0 - 0.9 * np.exp(-(positions**2) / (2.0 * 30.0**2))) + np.cos(positions)
    visibility, residual = _fit_visibility(positions, rates, 35.0)
    assert abs(visibility - 0.9) < 0.01 and 0.0 < residual < math.inf
    huge = _fit_visibility(positions, rates * 2.0**1000, 35.0)
    assert huge[0] == visibility and huge[1] == math.inf


def test_empty_positions_fail_on_the_call():
    with pytest.raises(ValueError, match="positions must be nonempty"):
        hom_scan_blocks([], ideal(), {})


def test_hom_scan_shoulder_only_positions():
    cfg = ideal(seed=43, pairs=400_000)
    result = hom_scan([150.0], cfg)
    assert result.visibility is None
    duration = cfg.repetitions * cfg.period
    total_rate = cfg.pair_rate
    for rate in (result.rate_pp[0], result.rate_mp[0], result.rate_pm[0], result.rate_mm[0]):
        assert abs(rate / total_rate - 0.25) < 4 * math.sqrt(0.25 / (total_rate * duration))


def test_with_pairs_per_point():
    cfg = ExperimentConfig.ideal()
    adjusted = with_pairs_per_point(cfg, 123_456.0)
    assert adjusted.pair_rate * adjusted.period * adjusted.repetitions == pytest.approx(123_456.0)


def test_count_record_validation():
    with pytest.raises(ValueError):
        CountRecord(c_pp=-1, c_pm=0, c_mp=0, c_mm=0, sh_pp=0, sh_pm=0, sh_mp=0, sh_mm=0)
    rec = CountRecord(c_pp=1, c_pm=2, c_mp=3, c_mm=4, sh_pp=5, sh_pm=6, sh_mp=7, sh_mm=8)
    assert rec.conclusive_total == 10


def test_count_record_estimates_are_nan_where_undefined():
    rec = CountRecord(c_pp=1, c_pm=2, c_mp=3, c_mm=4, sh_pp=5, sh_pm=6, sh_mp=7, sh_mm=8)
    conclusive, pi_err = rec.normalized_rate(1 + 3, 4 + 2)
    expected = (*rec.normalized_rate(1, 4), 1.0 - conclusive, pi_err, 0.5, math.sqrt(0.25 / 10))
    assert rec.estimates() == expected
    # a zero shoulder sum leaves P_succ and P_I undefined; no conclusive event, the error rate
    no_shoulder = replace(rec, sh_pp=0, sh_mp=0).estimates()
    assert all(map(math.isnan, no_shoulder[:4])) and no_shoulder[4:] == expected[4:]
    no_conclusive = replace(rec, c_pp=0, c_pm=0, c_mp=0, c_mm=0)
    assert no_conclusive.estimates().p_inconclusive == 1.0
    assert all(map(math.isnan, no_conclusive.estimates()[4:]))
    with pytest.raises(NoDataError):
        no_conclusive.wrong_class_rate()


@pytest.mark.parametrize("point_type", [DiscriminationPoint, MultimeterPoint])
def test_each_estimate_metadata_entry_names_an_estimates_column(point_type):
    sources = [f.metadata["estimate"] for f in fields(point_type) if "estimate" in f.metadata]
    assert len(sources) == 4 and set(sources) <= set(Estimates._fields)


def scalar_estimates(counts):
    """The estimates of one count row from the scalar estimators, NaN where they raise."""
    rec = CountRecord(*counts)
    try:
        p_succ = rec.normalized_rate(rec.c_pp, rec.c_mm)
        conclusive, pi_err = rec.normalized_rate(rec.c_pp + rec.c_mp, rec.c_mm + rec.c_pm)
        values = [*p_succ, 1.0 - conclusive, pi_err]
    except InvalidNormalizationError:
        values = [math.nan] * 4
    try:
        return values + list(rec.wrong_class_rate())
    except NoDataError:
        return values + [math.nan] * 2


def hexes(values):
    return [float(v).hex() for v in values]


# a count row inside the exactness bounds of estimate_table: conclusive total
# below 2**53, both shoulder sums below 2**26.5; small and zero counts reach the NaN masks
_exact_count = st.one_of(st.integers(0, 3), st.integers(0, 10**4), st.integers(0, 2**51 - 1))
_exact_shoulder = st.one_of(st.integers(0, 3), st.integers(0, 10**4), st.integers(0, 2**25))
_exact_row = st.tuples(*[_exact_count] * 4, *[_exact_shoulder] * 4)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(_exact_row, min_size=1, max_size=8), cut=st.integers(0, 8))
def test_estimate_table_equals_the_scalar_estimators_bit_for_bit(rows, cut):
    table = estimate_table(rows)
    for row, got in zip(rows, table):
        assert hexes(got) == hexes(scalar_estimates(row))
    # a row does not depend on the table size or on where a block boundary falls
    one_by_one = np.concatenate([estimate_table([row]) for row in rows])
    in_two_blocks = np.concatenate([estimate_table(rows[:cut]), estimate_table(rows[cut:])])
    assert hexes(one_by_one.ravel()) == hexes(table.ravel()) == hexes(in_two_blocks.ravel())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, 2**63 - 1))] * 8))
def test_estimate_table_beyond_the_exactness_bounds_differs_in_the_last_bits(row):
    # with a conclusive total of 2**53 or more or a shoulder sum of 2**26.5 or
    # more, roundings the scalar code does not make (of a count, of a sum, of
    # s * s) may change the last bits: at most 8 units of 2**-52 relative to
    # P_succ and the standard errors, to 1 + |P_I| for P_I (1 - conclusive)
    # and, for the wrong-class standard error, to rate / total for its square
    got, want = estimate_table([row])[0], scalar_estimates(row)
    assert hexes(np.isnan(got)) == hexes(np.isnan(want))
    tol = 8 * 2.0**-52
    if not math.isnan(want[0]):
        for j in (0, 1, 3):
            assert abs(got[j] - want[j]) <= tol * want[j]
        assert abs(got[2] - want[2]) <= tol * (1.0 + abs(want[2]))
    if not math.isnan(want[4]):
        assert abs(got[4] - want[4]) <= tol * want[4]
        assert abs(got[5] ** 2 - want[5] ** 2) <= tol * want[4] / sum(row[:4])


def test_estimate_table_shapes():
    assert estimate_table([]).shape == (0, 6)
    assert estimate_table(np.zeros((3, 8), dtype=np.int64)).shape == (3, 6)
    with pytest.raises(ValueError, match=r"shape \(n, 8\)"):
        estimate_table(np.zeros((2, 7)))


@pytest.mark.parametrize("bad", [-1, 13.7, math.nan, math.inf, 2**63, 1e300])
def test_first_bad_count_names_a_bad_count_like_a_count_record(bad):
    # a column is an int64 or float64 array, as TableReader.blocks parses it: [3, 2**63] is float64
    columns = [np.asarray([1, 2])] * (len(COUNT_COLUMNS) - 1)
    column = np.asarray([3, bad])
    assert first_bad_count([*columns, column]) == (1, "sh_mm")
    with pytest.raises(ValueError, match="sh_mm must be a nonnegative integer below 2\\*\\*63"):
        CountRecord(1, 1, 1, 1, 1, 1, 1, column[1].item())
    assert first_bad_count([*columns, np.array([13.0, 0.0])]) is None
    assert first_bad_count([*columns, np.array([0, 2**63 - 1])]) is None


def test_jittered_repetitions_are_bounded_by_the_stage_block():
    # a block of a stage holds at least one point, whose jittered periods are
    # analyzed one by one; the configs are only built here, never sampled
    message = "repetitions must be at most 4096 when angle_jitter > 0, got 100000000"
    jitter_free = ExperimentConfig(repetitions=10**8, pair_rate=1.0, angle_jitter=0.0)
    assert jitter_free.repetitions == 10**8
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(repetitions=10**8, pair_rate=1.0)
    with pytest.raises(ValueError, match=message):
        replace(jitter_free, angle_jitter=0.5)
    assert ExperimentConfig(repetitions=4096).repetitions == 4096


def test_config_roundtrip_and_schema_errors():
    cfg = ExperimentConfig.realistic(seed=7)
    data = asdict(cfg)
    back = config_from_dict(data)
    assert back == cfg
    with pytest.raises(SchemaViolationError):
        config_from_dict({"pair_rate": 1.0, "bogus_knob": 3})
    with pytest.raises(SchemaViolationError):
        config_from_dict({"analyzer": {"transmittance_x": 0.5}})
    # the ideal reference configuration is the idealized default one
    for pair_rate, seed in ((100_000.0, 12345), (40_000.0, 77), (1.5, 0)):
        ideal_cfg = ExperimentConfig.ideal(pair_rate, seed)
        assert ideal_cfg == ExperimentConfig(pair_rate=pair_rate, seed=seed).idealized()


def test_config_accepts_detector_map_override():
    cfg = config_from_dict({"analyzer": {"detector_map": ["D4", "D2", "D1", "D3"]}})
    assert cfg.analyzer.detector_map == ("D4", "D2", "D1", "D3")
    with pytest.raises(ValueError):
        config_from_dict({"analyzer": {"detector_map": ["D1", "D1", "D2", "D3"]}})


def test_config_rejects_bad_values():
    # at efficiency 0 every count is 0, and so every estimate NaN
    for efficiency in (1.5, 0.0, -0.0, -1e-300):
        with pytest.raises(ValueError, match=r"detector_efficiency must lie in \(0, 1\]"):
            ExperimentConfig(detector_efficiency=efficiency)
    # beyond [1e-100, 1e100] sigma^2 overflows or underflows, and the dip profile with it
    for sigma in (0.0, 1e-200, 9.999999e-101, 1.0000001e100, 1e200):
        with pytest.raises(ValueError, match="dip_sigma must lie in"):
            ExperimentConfig(dip_sigma=sigma)
    with pytest.raises(ValueError):
        ExperimentConfig(repetitions=0)
    # a jitter range beyond the float range failed in the uniform draw
    for jitter in (-1e-9, 180.0000001, 1e308):
        with pytest.raises(ValueError, match="angle_jitter must lie in"):
            ExperimentConfig(angle_jitter=jitter)
    assert ExperimentConfig(angle_jitter=180.0).angle_jitter == 180.0


# every field with "bounds" metadata, as (dataclass, field)
BOUNDED = [
    (owner, f) for owner in (ExperimentConfig, AnalyzerConfig, MultimeterPoint) for f in fields(owner)
    if "bounds" in f.metadata
]


def bound_probes(f):
    """(value, inside) at each finite endpoint of the bounds of field `f` and one step out and in from it."""
    text = f.metadata["bounds"]
    low, high = (float(end) for end in text[1:-1].split(","))
    probes = []
    for end, closed, out in ((low, text[0] == "[", -math.inf), (high, text[-1] == "]", math.inf)):
        if math.isinf(end):
            continue
        if f.type == "int":  # the next integers; a float there fails as no integer
            step = 1 if out > 0 else -1
            probes += [(int(end), closed), (int(end) + step, False), (int(end) - step, True)]
        else:
            probes += [(end, closed), (float(np.nextafter(end, out)), False), (float(np.nextafter(end, -out)), True)]
    return probes


def bound_checks(owner, name, value, inside):
    """The ways `value` is checked as field `name` of `owner`: a config built with it, or for eta
    check_eta on it alone and in an array after a valid value (and before a NaN when it lies outside)."""
    if owner is MultimeterPoint:
        return [lambda: check_eta(value), lambda: check_eta(np.array([0.5, value] + ([] if inside else [np.nan])))]
    return [lambda: owner(**{name: value})]


@pytest.mark.parametrize("owner, f", BOUNDED, ids=[f"{owner.__name__}.{f.name}" for owner, f in BOUNDED])
def test_each_bound_passes_its_closed_endpoints_and_names_what_lies_outside(owner, f):
    probes = bound_probes(f)
    assert probes, "a bound with no finite endpoint is a type check"
    for value, inside in probes:
        for check in bound_checks(owner, f.name, value, inside):
            if inside:
                check()
                continue
            with pytest.raises(ValueError) as raised:
                check()
            assert str(raised.value) == f"{f.name} must lie in {f.metadata['bounds']}, got {value}", value


def test_the_readme_states_each_bound_of_the_metadata_once():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"`(\w+)`\s+must\s+lie\s+in\s+([\[(][^\])]*[\])])", readme)
    assert sorted((name, " ".join(bounds.split())) for name, bounds in stated) == sorted(
        (f.name, f.metadata["bounds"]) for _, f in BOUNDED
    )
    config_json = readme.split("## Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(config_json) == json.loads(json.dumps(asdict(ExperimentConfig())))


def test_each_module_attribute_the_readme_names_exists():
    # `<module>.<name>`, also as a call, where <module> is a module of the package
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    modules = {module.name for module in pkgutil.iter_modules(bellmeter.__path__)}
    named = {ref for ref in re.findall(r"`(\w+)\.(\w+)(?:\([^`]*\))?`", readme) if ref[0] in modules}
    assert named
    missing = [f"{module}.{name}" for module, name in sorted(named)
               if not hasattr(importlib.import_module(f"bellmeter.{module}"), name)]
    assert missing == []


@pytest.mark.parametrize("sigma", [1e-100, 1e100])
def test_hom_scan_runs_at_the_dip_width_bounds(sigma):
    # pytest turns every RuntimeWarning (overflow, 0/0) into an error
    cfg = replace(ideal(seed=5, pairs=1000), dip_sigma=sigma)
    overlaps = mode_overlap_at(np.array([0.0, 1e-200, 35.0, 1e200]), cfg)
    assert overlaps[0] == 1.0 and np.all((0.0 <= overlaps) & (overlaps <= 1.0))
    result = hom_scan(np.arange(-200.0, 201.0, 10.0), cfg)
    assert np.all(np.isfinite(np.column_stack([result.rate_mp, result.rate_pm])))


def test_far_positions_get_zero_overlap_without_warnings():
    cfg = ideal(seed=6, pairs=1000)
    far = [1e200, 2e200, 3e200, 4e200]
    assert np.array_equal(mode_overlap_at(np.array(far), cfg), np.zeros(4))
    assert mode_overlap_at(-1e200, cfg) == 0.0
    result = hom_scan(far, cfg)
    assert result.visibility is None and result.curve_visibilities == ()
    shoulder_far = replace(cfg, shoulder_position=1e200)
    assert shoulder_counts(+1, shoulder_far) == shoulder_counts(+1, replace(cfg, shoulder_position=1e4))


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
        "bellmeter.experiment.stokes_outcome_probs",
        lambda *args: broken(stokes_outcome_probs(*args)),
    )
    with pytest.raises(ValueError, match="sum to 1"):
        simulate_counts(
            recipe_discriminator(0, 45, 1), recipe_discriminator(0, 45, 1), 0.0, ideal(seed=3)
        )


def test_broken_class_probabilities_name_the_first_row_on_one_line(monkeypatch):
    def broken(*args):
        probs = stokes_outcome_probs(*args)
        probs[[3, 5]] *= 2.0
        return probs

    monkeypatch.setattr("bellmeter.experiment.stokes_outcome_probs", broken)
    with pytest.raises(ValueError) as raised:
        joined_sweep(sweep_angles([tuple(recipe_multimeter(0.0, s) for s in (+1, -1, +1))] * 3), ideal(seed=3))
    assert str(raised.value) == "analyzer class probabilities do not sum to 1: row 3 sums to 2.0"


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
        {"seed": -1},
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
        {"mode_overlap": True},
        {"transmittance_v": False},
        {"geometric_phase": "false"},
        {"detector_map": "D1D2D3D4"},
        [0.5],
    ],
)
def test_config_rejects_bad_analyzer_at_construction(analyzer):
    with pytest.raises(ValueError):
        config_from_dict({"analyzer": analyzer})


def sweep_angles(settings_):
    """The (n, 3, 2) plate angles of a sweep of (plus, minus, program) recipes."""
    return np.array([[(r.qwp_deg, r.hwp_deg) for r in setting] for setting in settings_], dtype=float)


def joined_sweep(angles, cfg, eta=1.0):
    """The (n, 8) count table of a sweep over the nominal plate angles `angles`, its sweep_blocks joined."""
    blocks = sweep_blocks((angles,), lambda block: block, cfg, eta)
    return np.concatenate([counts for _, counts in blocks])


def sequential_record(setting, point_cfg, stream, eta=1.0):
    """Main +, main -, shoulder + and shoulder - of a sweep point, one call at a time on `stream`."""
    plus, minus, program = setting
    rng = np.random.default_rng(stream)
    return CountRecord(
        *simulate_counts(plus, program, 0.0, point_cfg, rng, eta=eta),
        *simulate_counts(minus, program, 0.0, point_cfg, rng, eta=eta),
        *shoulder_counts(+1, point_cfg, rng),
        *shoulder_counts(-1, point_cfg, rng),
    )


def sweep_stages(settings_, cfg, eta=1.0):
    """The four (angles, positions, eta) stages of a sweep of (plus, minus, program) recipe triples."""
    angles = sweep_angles(settings_)
    shoulder = sweep_angles([tuple(recipe_discriminator(0.0, 45.0, sign) for sign in (+1, -1, +1))])
    shoulder = np.repeat(shoulder, len(angles), axis=0)
    center, outside = np.zeros(len(angles)), np.full(len(angles), cfg.shoulder_position)
    return [
        (angles[:, [0, 2]], center, eta),
        (angles[:, [1, 2]], center, eta),
        (shoulder[:, [0, 2]], outside, 1.0),
        (shoulder[:, [1, 2]], outside, 1.0),
    ]


def stage_means(stages, cfg, jitter_streams=None):
    """The (n, 2 * stages) Poisson means of `stages`; stage s jitters from jitter_streams[s] if given."""
    columns = []
    for s, (nominal, positions, eta) in enumerate(stages):
        angles = np.asarray(nominal, dtype=float)[:, None]
        if jitter_streams is not None and cfg.angle_jitter > 0.0:
            shape = (len(angles), cfg.repetitions, 2, 2)
            rng = np.random.default_rng(jitter_streams[s])
            angles = angles + rng.uniform(-cfg.angle_jitter, cfg.angle_jitter, size=shape)
        overlaps = np.array([mode_overlap_at(x, cfg) for x in positions])
        columns.append(_poisson_means(angles, overlaps, cfg, eta))
    return np.hstack(columns)


def staged_reference(stages, cfg):
    """Counts of `stages` with stage s jittered from spawned stream 2s and counted from stream 2s + 1."""
    streams = np.random.SeedSequence(cfg.seed).spawn(2 * len(stages))
    means = stage_means(stages, cfg, jitter_streams=streams[0::2])
    count_rngs = [np.random.default_rng(stream) for stream in streams[1::2]]
    return np.hstack([rng.poisson(means[:, 2 * s : 2 * s + 2]) for s, rng in enumerate(count_rngs)])


def test_sweep_rows_are_the_stage_draws_and_reproduce_by_prefix():
    # a device sweep's counts are its four stages drawn from their spawned
    # streams, and the first k rows of a grid are the grid of its first k points
    cfg = ExperimentConfig.realistic(seed=21)
    point_cfg = with_pairs_per_point(cfg, 5_000)
    grid = [(eps, theta) for eps in (0.0, 24.0) for theta in (10.0, 50.0)]
    disc = run_discriminator_sweep([0.0, 24.0], [10.0, 50.0], cfg, pairs_per_point=5_000)
    settings_ = [tuple(recipe_discriminator(*point, sign) for sign in (+1, -1, +1)) for point in grid]
    expected = staged_reference(sweep_stages(settings_, point_cfg), point_cfg)
    assert [(pt.epsilon, pt.theta) for pt in disc] == grid
    assert [pt.counts for pt in disc] == [CountRecord(*row) for row in expected.tolist()]
    first_eps = run_discriminator_sweep([0.0], [10.0, 50.0], cfg, pairs_per_point=5_000)
    assert [pt.counts for pt in first_eps] == [pt.counts for pt in disc[:2]]
    # the estimate columns are those estimate_table gives for the counts
    estimates = estimate_table([astuple(pt.counts) for pt in disc])
    got = [[pt.p_estimated, pt.p_stderr, pt.error_rate, pt.error_rate_stderr] for pt in disc]
    np.testing.assert_array_equal(got, estimates[:, [0, 1, 4, 5]])

    phis = [-40.0, 0.0, 30.0]
    multi = run_multimeter_sweep(phis, 0.4, cfg, pairs_per_point=5_000)
    settings_ = [tuple(recipe_multimeter(phi, sign) for sign in (+1, -1, +1)) for phi in phis]
    expected = staged_reference(sweep_stages(settings_, point_cfg, eta=0.4), point_cfg)
    assert [pt.counts for pt in multi] == [CountRecord(*row) for row in expected.tolist()]
    estimates = estimate_table(expected)
    got = [[pt.p_inconclusive, pt.pi_stderr, pt.error_rate, pt.error_rate_stderr] for pt in multi]
    np.testing.assert_array_equal(got, estimates[:, 2:])
    np.testing.assert_array_equal([pt.fidelity for pt in multi], 1.0 - estimates[:, 4])
    for k in range(1, len(phis)):
        prefix = run_multimeter_sweep(phis[:k], 0.4, cfg, pairs_per_point=5_000)
        assert [pt.counts for pt in prefix] == [pt.counts for pt in multi[:k]]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    device=st.sampled_from(["discriminator", "multimeter"]),
    angles=st.lists(st.tuples(st.floats(0.0, 45.0), st.floats(-90.0, 90.0)), min_size=1, max_size=5),
    jitter=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
    repetitions=st.integers(1, 4),
    eta=st.floats(0.0, 1.0),
    pairs=st.sampled_from([20.0, 5_000.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_stage_draws_from_its_two_spawned_streams(
    device, angles, jitter, repetitions, eta, pairs, seed
):
    # stage s of a sweep takes the jitter of all its periods from spawned
    # stream 2s and its counts, one Poisson draw of the (n, 2) means, from
    # stream 2s + 1; both are consumed in point order, so blocks of points
    # change no draw and the first k points alone give the first k rows
    if device == "discriminator":
        settings_ = [
            tuple(recipe_discriminator(eps, theta, sign) for sign in (+1, -1, +1))
            for eps, theta in angles
        ]
    else:
        settings_ = [tuple(recipe_multimeter(phi, sign) for sign in (+1, -1, +1)) for _, phi in angles]
    cfg = replace(ExperimentConfig.realistic(seed=seed), angle_jitter=jitter, repetitions=repetitions)
    point_cfg = with_pairs_per_point(cfg, pairs)
    expected = staged_reference(sweep_stages(settings_, point_cfg, eta), point_cfg)
    for block_periods in (1, 6, 4096):
        with patch("bellmeter.experiment._MAX_STAGE_PERIODS", block_periods):
            counts = joined_sweep(sweep_angles(settings_), point_cfg, eta=eta)
        assert counts.dtype == np.int64 and counts.shape == (len(settings_), 8)
        assert np.array_equal(counts, expected)
    for k in range(1, len(settings_)):
        prefix = joined_sweep(sweep_angles(settings_[:k]), point_cfg, eta=eta)
        assert np.array_equal(prefix, expected[:k])


def per_point_sampler(settings_, cfg, pairs, eta):
    """The count table of the per-point sampler sweeps used before the stage streams.

    Point i measured main +, main -, shoulder + and shoulder - one
    simulate_counts call at a time on SeedSequence(cfg.seed).spawn(n)[i].
    """
    point_cfg = with_pairs_per_point(cfg, pairs)
    streams = np.random.SeedSequence(cfg.seed).spawn(len(settings_))
    records = [sequential_record(setting, point_cfg, stream, eta) for setting, stream in zip(settings_, streams)]
    return np.array([astuple(record) for record in records])


@pytest.mark.parametrize(
    "device, pairs, jitter, eta",
    [
        ("discriminator", 20.0, 0.0, 1.0),
        ("discriminator", 5_000.0, 1.0, 1.0),
        ("multimeter", 20.0, 1.0, 0.5),
        ("multimeter", 5_000.0, 0.0, 0.5),
    ],
)
def test_stage_sampler_draws_the_distribution_of_the_per_point_sampler(device, pairs, jitter, eta):
    # the stage streams change which numbers a sweep draws, not their
    # distribution.  Counts standardized by their nominal Poisson mean,
    # z = (c - lam) / sqrt(lam), have the same mean and sd under both
    # samplers; with 20 pairs the means lie below 10, where numpy's Poisson
    # sampler takes its other algorithm.  Accidentals of 0.5 per class keep
    # every mean away from 0, so the fourth moment of z (3 + 1 / lam without
    # jitter) stays small and the normal bounds below hold at N ~ 10^4
    cfg = replace(
        ExperimentConfig.realistic(seed=2024), angle_jitter=jitter,
        dark_count_rate=500.0, coincidence_window=1e-7,
    )
    if device == "discriminator":
        grid = [(eps, theta) for eps in range(0, 37, 4) for theta in range(0, 91, 3)] * 4
        settings_ = [tuple(recipe_discriminator(*point, sign) for sign in (+1, -1, +1)) for point in grid]
    else:
        phis = list(range(-90, 91)) * 7
        settings_ = [tuple(recipe_multimeter(phi, sign) for sign in (+1, -1, +1)) for phi in phis]
    point_cfg = with_pairs_per_point(cfg, pairs)
    lam = stage_means(sweep_stages(settings_, point_cfg, eta), point_cfg)
    assert lam.min() > 0.49 and (pairs > 100 or lam.max() < 10.0)
    tables = joined_sweep(sweep_angles(settings_), point_cfg, eta), per_point_sampler(settings_, cfg, pairs, eta)
    z = [((table - lam) / np.sqrt(lam)).ravel() for table in tables]
    n = z[0].size
    # standard errors of the sample mean and sd (delta method on the variance)
    mean_se = [np.sqrt(v.var() / n) for v in z]
    sd_se = [np.sqrt((np.mean((v - v.mean()) ** 4) - v.var() ** 2) / n) / (2.0 * v.std()) for v in z]
    assert abs(z[0].mean() - z[1].mean()) <= 5.0 * math.hypot(*mean_se)
    assert abs(z[0].std() - z[1].std()) <= 5.0 * math.hypot(*sd_se)


@pytest.mark.parametrize("n", [3, 5_000])
def test_a_sweep_builds_two_generators_per_stage(monkeypatch, n):
    # the streams are per stage, so their number and memory do not grow with the grid
    built = []
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        built.append(default_rng(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(np.random, "default_rng", counting)
    cfg = ExperimentConfig.realistic(seed=2)
    settings_ = [tuple(recipe_multimeter(phi, sign) for sign in (+1, -1, +1)) for phi in (-30.0, 45.0)]
    angles = sweep_angles(settings_)
    joined_sweep(np.resize(angles, (n, 3, 2)), with_pairs_per_point(cfg, 1_000.0), eta=0.5)
    assert len(built) == 2 * 4
    built.clear()
    hom_scan(np.linspace(-200.0, 200.0, n), cfg)
    assert len(built) == 2 * 2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    eta=st.floats(0.0, 1.0),
    mode_overlap=st.floats(0.0, 1.0),
    positions=st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=5),
    repetitions=st.sampled_from([1, 3, 10]),
)
def test_jitter_free_means_weight_one_period_by_the_repetitions(
    seed, eta, mode_overlap, positions, repetitions
):
    # without jitter a setting is analyzed as one period weighted by R; its
    # means equal the sum over all R periods up to the rounding of R p vs p + ... + p
    cfg = replace(
        ExperimentConfig.realistic(),
        angle_jitter=0.0,
        repetitions=repetitions,
        analyzer=AnalyzerConfig(transmittance_h=0.53, transmittance_v=0.48, mode_overlap=mode_overlap),
    )
    n = len(positions)
    angles = np.random.default_rng(seed).uniform(-90.0, 90.0, size=(n, 1, 2, 2))
    overlaps = np.array([mode_overlap_at(x, cfg) for x in positions])
    one_period = _poisson_means(angles, overlaps, cfg, eta)
    every_period = _poisson_means(np.broadcast_to(angles, (n, repetitions, 2, 2)), overlaps, cfg, eta)
    assert np.all(np.abs(one_period - every_period) <= 1e-15 * every_period)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    efficiency=st.floats(0.01, 1.0),
    pairs=st.floats(1e4, 1e12),
    period=st.floats(1e-3, 1e3),
    repetitions=st.integers(1, 50),
    dark_count_rate=st.floats(0.0, 1e5),
    coincidence_window=st.floats(0.0, 1e-6),
    analyzer=st.builds(
        AnalyzerConfig,
        transmittance_h=st.floats(0.01, 0.99),
        transmittance_v=st.floats(0.01, 0.99),
        mode_overlap=st.floats(0.0, 1.0),
        geometric_phase=st.booleans(),
    ),
    every_period=st.booleans(),
    n=st.integers(1, 4),
)
def test_the_config_bounds_bracket_the_means(
    seed, efficiency, pairs, period, repetitions, dark_count_rate, coincidence_window, analyzer, every_period, n
):
    # every class mean <= efficiency^2 * pairs + accidentals (the "can expect a
    # coincidence" bound) <= pair_rate * period * repetitions + accidentals (the worst mean)
    cfg = with_pairs_per_point(
        ExperimentConfig(
            period=period, repetitions=repetitions, detector_efficiency=efficiency,
            dark_count_rate=dark_count_rate, coincidence_window=coincidence_window, analyzer=analyzer,
        ),
        pairs,
    )
    rng = np.random.default_rng(seed)
    periods = repetitions if every_period else 1
    angles = rng.uniform(-180.0, 180.0, size=(n, periods, 2, 2))
    means = _poisson_means(angles, rng.uniform(0.0, 1.0, n), cfg, rng.uniform(0.0, 1.0, n))
    most = efficiency**2 * pairs + _accidentals(cfg)
    worst = cfg.pair_rate * cfg.period * cfg.repetitions + _accidentals(cfg)
    assert np.all(means <= most * (1.0 + 1e-12))
    assert most <= worst * (1.0 + 1e-12)


def main_stage_means(settings_, cfg, eta=1.0):
    """Poisson means of the main plus and main minus stages of a sweep, jitter drawn from one stream."""
    rng = np.random.default_rng(cfg.seed)
    periods = cfg.repetitions if cfg.angle_jitter > 0 else 1
    means = []
    for data in (0, 1):
        angles = sweep_angles(settings_)[:, [data, 2]]
        jitter = rng.uniform(-cfg.angle_jitter, cfg.angle_jitter, size=(len(settings_), periods, 2, 2))
        overlaps = np.full(len(settings_), mode_overlap_at(0.0, cfg))
        means.append(_poisson_means(angles[:, None] + jitter, overlaps, cfg, eta))
    return means


DEFAULT_DISCRIMINATOR_SETTINGS = [
    tuple(recipe_discriminator(eps, theta, sign) for sign in (+1, -1, +1))
    for eps in (0.0, 12.0, 24.0, 36.0)
    for theta in range(0, 91, 4)
]


def test_ideal_wrong_class_means_are_exactly_zero():
    # error-free analysis of the default grid: a wrong-class mean is exactly 0,
    # not a rounding residue that would take a number from the point's stream
    cfg = with_pairs_per_point(ExperimentConfig().idealized(), 5)
    plus_in, minus_in = main_stage_means(DEFAULT_DISCRIMINATOR_SETTINGS, cfg)
    assert np.all(plus_in[:, 1] == 0.0) and np.all(minus_in[:, 0] == 0.0)
    assert plus_in[:, 0].max() > 0.0 and minus_in[:, 1].max() > 0.0


@pytest.mark.parametrize("pairs", [5.0, 1e6])
@pytest.mark.parametrize("make_config", [ExperimentConfig.ideal, ExperimentConfig.realistic])
def test_the_flush_moves_only_means_below_floor_times_pairs(make_config, pairs, monkeypatch):
    # Poisson(m) and Poisson(0) differ in total variation by 1 - exp(-m) <= m,
    # so the analyzer's flush changes a count distribution by at most floor * pairs
    cfg = with_pairs_per_point(make_config(), pairs)
    multimeter = [
        tuple(recipe_multimeter(phi, sign) for sign in (+1, -1, +1)) for phi in range(-90, 91, 8)
    ]
    kernel_outputs = []

    def recording(*args):
        kernel_outputs.append(stokes_outcome_probs(*args))
        return kernel_outputs[-1]

    monkeypatch.setattr("bellmeter.experiment.stokes_outcome_probs", recording)
    for settings_, eta in ((DEFAULT_DISCRIMINATOR_SETTINGS, 1.0), (multimeter, 0.5)):
        kernel_outputs.clear()
        flushed = main_stage_means(settings_, cfg, eta)
        with patch("bellmeter.analyzer._PROB_FLOOR", -np.inf):
            raw = main_stage_means(settings_, cfg, eta)
        for before, after in zip(raw, flushed):
            moved = before != after
            assert np.all(np.abs(before - after)[moved] <= _PROB_FLOOR * pairs)
            if cfg.dark_count_rate == 0.0 and eta == 1.0:
                assert np.all(before[moved] <= _PROB_FLOOR * pairs) and np.all(after[moved] == 0.0)
        # at eta < 1 the relabelled inconclusive share is added after the flush, so a moved
        # mean may be large; the flush acts in the kernel, on values below the floor alone
        half = len(kernel_outputs) // 2
        for floored, unfloored in zip(kernel_outputs[:half], kernel_outputs[half:]):
            moved = floored != unfloored
            assert np.all(unfloored[moved] < _PROB_FLOOR) and np.all(floored[moved] == 0.0)


def counting_kernel(monkeypatch):
    """Patch the sampler's preparation and analyzer calls; return the call counter and analyzed rows."""
    calls, rows = Counter(), []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def analyze(data, *args):
        rows.append(len(data))
        return stokes_outcome_probs(data, *args)

    monkeypatch.setattr("bellmeter.experiment.stokes_outcome_probs", counting("analyze", analyze))
    monkeypatch.setattr(
        "bellmeter.polarization.stokes_from_angles", counting("prepare", stokes_from_angles)
    )
    return calls, rows


def test_sweep_prepares_and_analyzes_once_per_stage_and_block(monkeypatch):
    calls, rows = counting_kernel(monkeypatch)
    # with jitter every period is a state of its own: the four stages of n points
    # x 10 periods each go through one preparation and one analyzer call
    cfg = ExperimentConfig.realistic(seed=4)
    for thetas in ([10.0], np.arange(0.0, 91.0, 4.0)):
        calls.clear()
        rows.clear()
        run_discriminator_sweep([0.0, 24.0], thetas, cfg, pairs_per_point=1_000)
        assert calls == {"analyze": 1, "prepare": 1}
        assert rows == [4 * 2 * len(thetas) * 10]
    # one block holds up to 4096 analyzed periods per input setting: 409 points of
    # 10 jittered periods, or 4096 points without jitter, where each point of a
    # stage, the shoulder stages' points too, is analyzed as one period
    for sweep_cfg, n_points, block_rows in (
        (cfg, 409, [409]),
        (cfg, 410, [409, 1]),
        (cfg.idealized(), 181, [181]),
        (cfg.idealized(), 4096, [4096]),
        (cfg.idealized(), 4097, [4096, 1]),
    ):
        calls.clear()
        rows.clear()
        phis = np.linspace(-90.0, 90.0, n_points)
        run_multimeter_sweep(phis, 0.5, sweep_cfg, pairs_per_point=1_000)
        assert calls == {"analyze": len(block_rows), "prepare": len(block_rows)}
        periods = sweep_cfg.repetitions if sweep_cfg.angle_jitter > 0 else 1
        assert rows == [4 * n * periods for n in block_rows]


def test_blocks_hold_analyzed_periods_not_repetitions(monkeypatch):
    # without jitter a point is one analyzed period however large R is, so a
    # 1801-point sweep at R = 100000 is one block, and the block size changes no draw
    calls, rows = counting_kernel(monkeypatch)
    cfg = with_pairs_per_point(replace(ExperimentConfig(seed=8), repetitions=100_000, angle_jitter=0.0), 1e6)
    angles = multimeter_angles(np.linspace(-90.0, 90.0, 1801))
    counts = joined_sweep(angles, cfg, eta=0.5)
    assert calls == {"analyze": 1, "prepare": 1} and rows == [4 * 1801]
    with patch("bellmeter.experiment._MAX_STAGE_PERIODS", 1):
        assert np.array_equal(joined_sweep(angles, cfg, eta=0.5), counts)
    assert calls["analyze"] == 1 + 1801


@pytest.mark.parametrize("jitter, block_periods", [(1.0, 7), (0.0, 4)])
def test_sweep_blocks_join_to_measure_sweep(jitter, block_periods):
    # blocks of 2 jittered points of R = 3 periods, or of 4 points without
    # jitter, join to the one block of the default size: the block size changes no draw
    cfg = with_pairs_per_point(replace(ExperimentConfig(seed=6), repetitions=3, angle_jitter=jitter), 1e4)
    phis = np.linspace(-90.0, 90.0, 11)

    def sweep():
        return list(sweep_blocks((phis,), multimeter_angles, cfg, eta=0.5))

    with patch("bellmeter.experiment._MAX_STAGE_PERIODS", block_periods):
        blocks = sweep()
    assert [len(phi) for (phi,), _ in blocks] == ([2] * 5 + [1] if jitter else [4, 4, 3])
    assert np.array_equal(np.concatenate([phi for (phi,), _ in blocks]), phis)
    counts = np.concatenate([block for _, block in blocks])
    [((whole_phi,), whole)] = sweep()
    assert np.array_equal(whole_phi, phis) and np.array_equal(counts, whole)


@pytest.mark.parametrize("jitter", [1.0, 0.0])
@pytest.mark.parametrize("block_periods", [1, 7])
def test_sweep_blocks_run_over_the_product_of_the_axes(jitter, block_periods):
    # epsilon x theta, theta fastest, in blocks of 1 to 7 points: the coordinates of
    # np.repeat / np.tile, and the counts of the one block of the default size
    cfg = with_pairs_per_point(replace(ExperimentConfig(seed=4), repetitions=3, angle_jitter=jitter), 1e4)
    eps, thetas = [0.0, 12.5, 30.0], np.linspace(0.0, 90.0, 5)

    def sweep():
        blocks = list(sweep_blocks((eps, thetas), discriminator_angles, cfg))
        return len(blocks), [np.concatenate(column) for column in zip(*[(*xy, counts) for xy, counts in blocks])]

    whole_blocks, whole = sweep()
    with patch("bellmeter.experiment._MAX_STAGE_PERIODS", block_periods):
        cut_blocks, cut = sweep()
    assert whole_blocks == 1 and cut_blocks == math.ceil(15 / max(1, block_periods // (3 if jitter else 1)))
    assert np.array_equal(whole[0], np.repeat(eps, len(thetas)))
    assert np.array_equal(whole[1], np.tile(thetas, len(eps)))
    assert all(np.array_equal(a, b) for a, b in zip(cut, whole))


@pytest.mark.parametrize("axes", [([], [0.0, 45.0]), ([0.0, 12.0], []), ([],)])
def test_an_empty_axis_yields_no_block(axes):
    angles_of = discriminator_angles if len(axes) == 2 else multimeter_angles
    assert list(sweep_blocks(axes, angles_of, ExperimentConfig())) == []


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda cfg: sweep_blocks(([math.inf],), multimeter_angles, cfg), "axes[0][0] must be finite, got inf"),
        (lambda cfg: sweep_blocks(([0.0], [45.0, math.nan]), discriminator_angles, cfg),
         "axes[1][1] must be finite, got nan"),
        (lambda cfg: hom_scan([math.nan, 0.0], cfg), "positions[0] must be finite, got nan"),
        (lambda cfg: hom_scan_blocks([0.0, -math.inf], cfg, {}), "positions[1] must be finite, got -inf"),
    ],
    ids=["sweep-inf", "sweep-second-axis-nan", "hom-scan-nan", "hom-scan-blocks-inf"],
)
def test_a_value_of_an_axis_that_is_not_finite_is_named_on_the_call(call, message):
    # a multimeter axis of inf warned in cos, and a NaN position failed as a mode overlap outside [0, 1]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(ExperimentConfig())


@pytest.mark.parametrize("pairs", [0.0, -5.0, math.nan, math.inf])
def test_with_pairs_per_point_rejects_non_positive_and_non_finite_counts(pairs):
    with pytest.raises(ValueError, match="pairs per point"):
        with_pairs_per_point(ExperimentConfig(), pairs)


def test_with_pairs_per_point_needs_one_expected_coincidence():
    # at the default config every class mean is at most 0.5^2 pairs + 2 * 100^2 * 1e-8 * 10
    with pytest.raises(ValueError, match=r"detector_efficiency\^2 \* pairs .* got 0\.9995$"):
        with_pairs_per_point(ExperimentConfig(), 3.99)
    assert with_pairs_per_point(ExperimentConfig(), 4.0).pair_rate == 0.4
    # dark accidentals alone may be enough: 2 * 1000^2 * 1e-8 * 5 s * 10 periods = 1
    dark = ExperimentConfig(detector_efficiency=1e-200, dark_count_rate=1000.0, period=5.0)
    assert with_pairs_per_point(dark, 1.0).pair_rate == 0.02


@pytest.mark.parametrize(
    "fields_",
    [
        {"pair_rate": 1e300},
        {"pair_rate": 1e17, "repetitions": 10},
        {"dark_count_rate": 1e200},
        {"dark_count_rate": 1e12, "coincidence_window": 1.0},
        {"repetitions": 10**400},
    ],
)
def test_config_bounds_the_worst_case_poisson_mean(fields_):
    with pytest.raises(ValueError, match="pair_rate .* dark_count_rate.* coincidence_window"):
        ExperimentConfig(**fields_)


def test_config_accepts_large_finite_poisson_means():
    cfg = ExperimentConfig(pair_rate=1e16, repetitions=10, angle_jitter=0.0)
    counts = simulate_counts(
        recipe_discriminator(0, 45, 1), recipe_discriminator(0, 45, 1), 0.0, cfg,
        np.random.default_rng(1),
    )
    assert counts.psi_plus > 0
    with pytest.raises(ValueError, match="pair_rate"):
        with_pairs_per_point(cfg, 1e300)


def test_sweep_working_memory_is_bounded_by_blocks():
    # 40 points x 1000 periods per input setting in one pass would hold ~35 MB
    # of stage arrays; blocks of at most 4096 periods keep it to a few MB.  The
    # jitter makes every period a state of its own: without it a stage analyzes
    # one period per distinct state, and the test would pass without blocks
    import tracemalloc

    cfg = replace(ExperimentConfig.ideal(), repetitions=1000, angle_jitter=1.0)
    settings_ = [tuple(recipe_multimeter(phi, sign) for sign in (+1, -1, +1)) for phi in range(40)]
    tracemalloc.start()
    try:
        joined_sweep(sweep_angles(settings_), with_pairs_per_point(replace(cfg, seed=5), 1_000.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
