import math
from dataclasses import replace

import numpy as np
import pytest

from bellmeter.analyzer import AnalyzerConfig, Outcome
from bellmeter.counts import CountRecord
from bellmeter.errors import InvalidNormalizationError
from bellmeter.experiment import ExperimentConfig
from bellmeter.multimeter import (
    effective_povm,
    fidelity_from_PI,
    povm_elements,
    reinterpret,
    run_multimeter_sweep,
    theory_PI,
)
from bellmeter.polarization import PolarizationState, prepare_equatorial
from bellmeter.twophoton import BELL_STATES, tensor


def bell_projector(i):
    return np.outer(BELL_STATES[i], BELL_STATES[i].conj())


def test_povm_elements_at_eta_one():
    pi_p, pi_m, pi_q = povm_elements(1.0)
    assert np.max(np.abs(pi_p.matrix - bell_projector(2))) < 1e-12
    assert np.max(np.abs(pi_m.matrix - bell_projector(3))) < 1e-12
    assert np.max(np.abs(pi_q.matrix - (bell_projector(0) + bell_projector(1)))) < 1e-12


def test_povm_elements_at_eta_zero():
    _, _, pi_q = povm_elements(0.0)
    assert np.max(np.abs(pi_q.matrix)) < 1e-15


def test_povm_traces_at_half():
    pi_p, pi_m, pi_q = povm_elements(0.5)
    assert np.trace(pi_q.matrix).real == pytest.approx(1.0, abs=1e-12)
    assert np.trace(pi_p.matrix).real == pytest.approx(1.5, abs=1e-12)
    assert np.trace(pi_m.matrix).real == pytest.approx(1.5, abs=1e-12)


def test_povm_completeness_and_positivity():
    for eta in np.linspace(0.0, 1.0, 100):
        elements = povm_elements(eta)
        total = sum(e.matrix for e in elements)
        assert np.max(np.abs(total - np.eye(4))) < 1e-12
        for e in elements:
            assert np.min(np.linalg.eigvalsh(e.matrix)) > -1e-12


def test_povm_rejects_eta_out_of_range():
    with pytest.raises(ValueError):
        povm_elements(-0.1)
    with pytest.raises(ValueError):
        povm_elements(1.1)


def test_theory_pi_endpoints_and_born_rule():
    assert theory_PI(1.0) == pytest.approx(0.5, abs=1e-15)
    assert theory_PI(0.0) == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(77)
    for eta in (0.0, 0.3, 0.6, 1.0):
        _, _, pi_q = povm_elements(eta)
        for phi in rng.uniform(-180.0, 180.0, size=10):
            for sign in (+1, -1):
                state = tensor(prepare_equatorial(phi, sign), prepare_equatorial(phi, +1))
                born = np.vdot(state.amplitudes, pi_q.matrix @ state.amplitudes).real
                assert abs(born - theory_PI(eta)) < 1e-12


def test_phase_covariance_of_conclusive_probabilities():
    # correct and wrong conclusive probabilities do not depend on phi
    for eta in (0.25, 1.0):
        pi_p, pi_m, _ = povm_elements(eta)
        values = []
        for phi in np.arange(-90.0, 91.0, 8.0):
            state = tensor(prepare_equatorial(phi, +1), prepare_equatorial(phi, +1))
            correct = np.vdot(state.amplitudes, pi_p.matrix @ state.amplitudes).real
            wrong = np.vdot(state.amplitudes, pi_m.matrix @ state.amplitudes).real
            values.append((correct, wrong))
        first = values[0]
        for corr, wrng in values[1:]:
            assert abs(corr - first[0]) < 1e-12
            assert abs(wrng - first[1]) < 1e-12


def test_fidelity_from_pi_values():
    assert fidelity_from_PI(0.0) == 0.75
    assert fidelity_from_PI(0.5) == 1.0
    assert fidelity_from_PI(0.25) == pytest.approx(5.0 / 6.0, abs=1e-15)
    with pytest.raises(ValueError):
        fidelity_from_PI(1.0)
    with pytest.raises(ValueError):
        fidelity_from_PI(-0.2)


def test_effective_povm_closed_form():
    rng = np.random.default_rng(4096)
    for _ in range(50):
        phi = rng.uniform(-180.0, 180.0)
        eta = rng.uniform(0.0, 1.0)
        program = prepare_equatorial(phi, +1)
        pi_p, pi_m, pi_q = effective_povm(program, eta)
        p_i = theory_PI(eta)
        fid = fidelity_from_PI(p_i)
        psi_p = prepare_equatorial(phi, +1).vector
        psi_m = prepare_equatorial(phi, -1).vector
        proj_p = np.outer(psi_p, psi_p.conj())
        proj_m = np.outer(psi_m, psi_m.conj())
        want_p = (1 - p_i) * (fid * proj_p + (1 - fid) * proj_m)
        want_m = (1 - p_i) * (fid * proj_m + (1 - fid) * proj_p)
        assert np.max(np.abs(pi_p - want_p)) < 1e-12
        assert np.max(np.abs(pi_m - want_m)) < 1e-12
        assert np.max(np.abs(pi_q - p_i * np.eye(2))) < 1e-12
        total = pi_p + pi_m + pi_q
        assert np.max(np.abs(total - np.eye(2))) < 1e-12
        for element in (pi_p, pi_m, pi_q):
            assert np.min(np.linalg.eigvalsh(element)) > -1e-12


def test_effective_povm_endpoints():
    plus = prepare_equatorial(0.0, +1).vector
    pi_p, _, pi_q = effective_povm(prepare_equatorial(0.0, +1), 1.0)
    assert np.max(np.abs(pi_p - 0.5 * np.outer(plus, plus.conj()))) < 1e-12
    assert np.max(np.abs(pi_q - 0.5 * np.eye(2))) < 1e-12
    pi_p0, _, pi_q0 = effective_povm(prepare_equatorial(0.0, +1), 0.0)
    minus = prepare_equatorial(0.0, -1).vector
    want = 0.75 * np.outer(plus, plus.conj()) + 0.25 * np.outer(minus, minus.conj())
    assert np.max(np.abs(pi_p0 - want)) < 1e-12
    assert np.max(np.abs(pi_q0)) < 1e-15


def test_effective_povm_rejects_non_equatorial_program():
    with pytest.raises(ValueError):
        effective_povm(PolarizationState(1.0, 0.0), 1.0)


def test_reinterpret_eta_one_is_identity():
    rng = np.random.default_rng(1)
    stream = rng.integers(0, 3, size=1000)
    out = reinterpret(stream, 1.0, np.random.default_rng(2))
    assert np.array_equal(out, stream)


def test_reinterpret_eta_zero_removes_inconclusives():
    rng = np.random.default_rng(3)
    stream = np.full(10_000, int(Outcome.INCONCLUSIVE))
    out = reinterpret(stream, 0.0, rng)
    assert not np.any(out == int(Outcome.INCONCLUSIVE))
    frac_plus = np.mean(out == int(Outcome.PSI_PLUS))
    assert abs(frac_plus - 0.5) < 3 * math.sqrt(0.25 / len(out))


def test_reinterpret_keeps_half_at_eta_half():
    rng = np.random.default_rng(8)
    n = 100_000
    stream = np.full(n, int(Outcome.INCONCLUSIVE))
    out = reinterpret(stream, 0.5, rng)
    kept = np.sum(out == int(Outcome.INCONCLUSIVE))
    assert abs(kept / n - 0.5) < 3 * math.sqrt(0.25 / n)
    # conclusive outcomes pass through untouched
    conclusive = np.full(1000, int(Outcome.PSI_MINUS))
    assert np.array_equal(reinterpret(conclusive, 0.5, rng), conclusive)


def test_estimate_pi_arithmetic():
    counts = CountRecord(c_pp=150, c_pm=40, c_mp=100, c_mm=210, sh_pp=125, sh_mp=125, sh_pm=125, sh_mm=125)
    assert counts.estimates().p_inconclusive == pytest.approx(0.5, abs=1e-15)
    zero = CountRecord(c_pp=0, c_pm=0, c_mp=0, c_mm=0, sh_pp=125, sh_mp=125, sh_pm=125, sh_mm=125)
    assert zero.estimates().p_inconclusive == pytest.approx(1.0, abs=1e-15)
    bad = CountRecord(c_pp=1, c_pm=0, c_mp=0, c_mm=0, sh_pp=0, sh_pm=0, sh_mp=0, sh_mm=0)
    with pytest.raises(InvalidNormalizationError):
        bad.normalized_rate(bad.c_pp + bad.c_mp, bad.c_mm + bad.c_pm)


def test_estimate_pi_on_monte_carlo_ideal_point():
    cfg = ExperimentConfig.ideal(seed=808)
    pts = run_multimeter_sweep([0.0], 1.0, cfg, pairs_per_point=100_000)
    pt = pts[0]
    assert abs(pt.p_inconclusive - 0.5) <= 3 * pt.pi_stderr
    assert pt.error_rate == 0.0
    assert pt.fidelity == 1.0


def test_sweep_eta_zero_gives_three_quarter_fidelity():
    cfg = ExperimentConfig.ideal(seed=271)
    pts = run_multimeter_sweep([-32.0, 0.0, 48.0], 0.0, cfg, pairs_per_point=200_000)
    for pt in pts:
        assert abs(pt.p_inconclusive - 0.0) <= 4 * pt.pi_stderr + 1e-3
        assert abs(pt.fidelity - 0.75) < 0.01


def test_sweep_reinterpretation_matches_tradeoff_curve():
    cfg = ExperimentConfig.ideal(seed=99)
    for eta in (0.25, 0.5, 0.75):
        pts = run_multimeter_sweep([16.0], eta, cfg, pairs_per_point=400_000)
        pt = pts[0]
        expected_f = fidelity_from_PI(theory_PI(eta))
        assert abs(pt.p_inconclusive - theory_PI(eta)) <= 4 * pt.pi_stderr
        assert abs(pt.fidelity - expected_f) < 0.01


def test_sweep_degraded_config_has_small_positive_error():
    cfg = replace(
        ExperimentConfig.ideal(seed=555),
        analyzer=AnalyzerConfig(mode_overlap=0.92),
    )
    pts = run_multimeter_sweep([24.0], 1.0, cfg, pairs_per_point=300_000)
    pt = pts[0]
    assert 0.0 < pt.error_rate < 0.15


def test_sweep_fidelity_is_one_minus_error_rate():
    # at 2 pairs per point some points record no conclusive event: both are NaN there
    pts = run_multimeter_sweep(
        np.arange(-90.0, 91.0, 5.0), 0.5, ExperimentConfig.ideal(seed=3), pairs_per_point=2
    )
    fidelity = np.array([pt.fidelity for pt in pts])
    np.testing.assert_array_equal(fidelity, [1.0 - pt.error_rate for pt in pts])
    assert np.isnan(fidelity).any() and ((0.0 < fidelity) & (fidelity < 1.0)).any()
