import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellmeter.analyzer import (
    DETECTORS,
    PATTERNS,
    AnalyzerConfig,
    Outcome,
    bell_projection_probs,
    bs_transform,
    classify,
    distinguishable_outcome_probs,
    ideal_outcome_probs,
    outcome_probs_batch,
    pattern_outcomes,
    pattern_probs_batch,
    stokes_outcome_probs,
)
from bellmeter.analyzer import _PROB_FLOOR, _overlap_column, _stokes_terms
from bellmeter.polarization import (
    PolarizationState,
    PrepRecipe,
    discriminator_angles,
    prepare_elliptical,
    prepare_from_recipe,
    stokes_from_angles,
)
from bellmeter.twophoton import BELL_STATES, TwoPhotonState, tensor

IDEAL = AnalyzerConfig()

PHI_PLUS = TwoPhotonState(BELL_STATES[0])
PHI_MINUS = TwoPhotonState(BELL_STATES[1])
PSI_PLUS = TwoPhotonState(BELL_STATES[2])
PSI_MINUS = TwoPhotonState(BELL_STATES[3])


def random_state(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return TwoPhotonState(v / np.linalg.norm(v))


def random_product_state(rng):
    d = rng.normal(size=2) + 1j * rng.normal(size=2)
    p = rng.normal(size=2) + 1j * rng.normal(size=2)
    return tensor(
        PolarizationState.from_vector(d), PolarizationState.from_vector(p)
    )


def pattern_probs(state, config, mode_overlap):
    """pattern_probs_batch of one state."""
    return pattern_probs_batch(state.amplitudes[None], config, mode_overlap)[0]


def recipe_vectors(settings_deg):
    """Jones vectors of prepare_from_recipe, shape (..., 2), for (QWP, HWP) angles of shape (..., 2)."""
    settings_deg = np.asarray(settings_deg)
    vectors = [prepare_from_recipe(PrepRecipe(*plates)).vector for plates in settings_deg.reshape(-1, 2)]
    return np.reshape(vectors, settings_deg.shape)


def test_bs_transform_rejects_degenerate_transmittance():
    with pytest.raises(ValueError):
        bs_transform(AnalyzerConfig(transmittance_h=0.0))
    with pytest.raises(ValueError):
        bs_transform(AnalyzerConfig(transmittance_v=1.0))


def test_analyzer_config_validation():
    with pytest.raises(ValueError):
        AnalyzerConfig(mode_overlap=1.5)
    with pytest.raises(ValueError):
        AnalyzerConfig(detector_map=("D1", "D1", "D2", "D3"))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("transmittance_h", True, "transmittance_h must be a finite number, got True"),
        ("transmittance_v", float("nan"), "transmittance_v must be a finite number, got nan"),
        ("geometric_phase", 1, "geometric_phase must be true or false, got 1"),
        ("transmittance_h", 1, "transmittance_h must lie in (0, 1), got 1"),
        ("mode_overlap", -0.5, "mode_overlap must lie in [0, 1], got -0.5"),
    ],
)
def test_analyzer_config_names_a_field_of_the_wrong_type_or_outside_its_bounds(field, value, message):
    with pytest.raises(ValueError) as raised:
        AnalyzerConfig(**{field: value})
    assert str(raised.value) == message


def test_mode_overlap_arrays_are_held_to_the_config_field_bounds():
    assert _overlap_column(np.array([0.0, 1.0]), 2).tolist() == [[0.0], [1.0]]
    for bad in (float(np.nextafter(0.0, -1.0)), float(np.nextafter(1.0, 2.0)), float("nan")):
        with pytest.raises(ValueError) as raised:
            stokes_outcome_probs(np.tile([1.0, 0.0, 0.0], (3, 1)), np.tile([0.0, 1.0, 0.0], (3, 1)), IDEAL, [0.5, bad, 2.0])
        assert str(raised.value) == f"mode_overlap must lie in [0, 1], got {bad}"


def test_bell_state_routing_with_geometric_phase():
    # Psi+ anti-bunches across the output ports, Psi- bunches into one port,
    # Phi+/- always end in a single detector (inconclusive)
    p = ideal_outcome_probs(PSI_PLUS, IDEAL)
    assert abs(p.psi_plus - 1.0) < 1e-12 and p.inconclusive < 1e-12
    p = ideal_outcome_probs(PSI_MINUS, IDEAL)
    assert abs(p.psi_minus - 1.0) < 1e-12
    for state in (PHI_PLUS, PHI_MINUS):
        p = ideal_outcome_probs(state, IDEAL)
        assert abs(p.inconclusive - 1.0) < 1e-12


def test_psi_plus_exits_different_ports():
    # with the phase, the two Psi+ photons leave by different output ports
    probs = pattern_probs(PSI_PLUS, IDEAL, 1.0)
    cross_port = 0.0
    for pr, (k, l) in zip(probs, PATTERNS):
        if (k < 2) != (l < 2):
            cross_port += pr
    assert abs(cross_port - 1.0) < 1e-12


def test_roles_swap_without_geometric_phase():
    # the naive beamsplitter model: the singlet anti-bunches instead
    cfg = AnalyzerConfig(geometric_phase=False)
    p = ideal_outcome_probs(PSI_MINUS, cfg)
    assert abs(p.psi_plus - 1.0) < 1e-12
    p = ideal_outcome_probs(PSI_PLUS, cfg)
    assert abs(p.psi_minus - 1.0) < 1e-12


def test_ideal_outcome_examples():
    hv = TwoPhotonState(np.array([0, 1, 0, 0], dtype=complex))
    p = ideal_outcome_probs(hv, IDEAL)
    assert abs(p.psi_plus - 0.5) < 1e-12 and abs(p.psi_minus - 0.5) < 1e-12

    hh = TwoPhotonState(np.array([1, 0, 0, 0], dtype=complex))
    p = ideal_outcome_probs(hh, IDEAL)
    assert abs(p.inconclusive - 1.0) < 1e-12

    state = tensor(prepare_elliptical(0.0, 45.0, +1), prepare_elliptical(0.0, 45.0, +1))
    p = ideal_outcome_probs(state, IDEAL)
    assert abs(p.psi_plus - 0.5) < 1e-12 and abs(p.psi_minus) < 1e-12
    assert abs(p.inconclusive - 0.5) < 1e-12


def test_oracle_equivalence_on_random_states():
    rng = np.random.default_rng(2718)
    for _ in range(100):
        state = random_state(rng)
        got = ideal_outcome_probs(state, IDEAL)
        want = bell_projection_probs(state)
        assert abs(got.psi_plus - want.psi_plus) < 1e-10
        assert abs(got.psi_minus - want.psi_minus) < 1e-10
        assert abs(got.inconclusive - want.inconclusive) < 1e-10


def test_probabilities_sum_to_one_any_branch_any_transmittance():
    rng = np.random.default_rng(99)
    for _ in range(50):
        cfg = AnalyzerConfig(
            transmittance_h=rng.uniform(0.1, 0.9),
            transmittance_v=rng.uniform(0.1, 0.9),
        )
        state = random_state(rng)
        for probs in (
            pattern_probs(state, cfg, 1.0),
            pattern_probs(state, cfg, 0.0),
            pattern_probs(state, cfg, rng.uniform(0, 1)),
        ):
            assert abs(probs.sum() - 1.0) < 1e-12


def test_distinguishable_45_45_quarters():
    state = tensor(prepare_elliptical(0.0, 45.0, +1), prepare_elliptical(0.0, 45.0, +1))
    p = distinguishable_outcome_probs(state, IDEAL)
    assert abs(p.psi_plus - 0.25) < 1e-12
    assert abs(p.psi_minus - 0.25) < 1e-12
    assert abs(p.inconclusive - 0.5) < 1e-12


def test_distinguishable_hh_enumeration():
    # both photons horizontal: every routing is inconclusive (same detector,
    # or the cross-port all-H pair D1 & D4)
    hh = TwoPhotonState(np.array([1, 0, 0, 0], dtype=complex))
    p = distinguishable_outcome_probs(hh, IDEAL)
    assert abs(p.inconclusive - 1.0) < 1e-12
    probs = pattern_probs(hh, IDEAL, 0.0)
    by_pattern = dict(zip(PATTERNS, probs))
    assert abs(by_pattern[(0, 2)] - 0.5) < 1e-12  # one photon per port, both H
    assert abs(by_pattern[(0, 0)] - 0.25) < 1e-12
    assert abs(by_pattern[(2, 2)] - 0.25) < 1e-12


def test_distinguishable_unbalanced_routing():
    # T_H = 0.6: one transmitted + one reflected (same output port) has
    # probability 2 T R = 0.48, both-same-decision (different ports) 0.52
    cfg = AnalyzerConfig(transmittance_h=0.6)
    hh = TwoPhotonState(np.array([1, 0, 0, 0], dtype=complex))
    probs = dict(zip(PATTERNS, pattern_probs(hh, cfg, 0.0)))
    same_port = probs[(0, 0)] + probs[(2, 2)]
    assert abs(same_port - 2 * 0.6 * 0.4) < 1e-12
    assert abs(probs[(0, 2)] - (0.6**2 + 0.4**2)) < 1e-12


def test_distinguishable_invariant_under_photon_exchange():
    rng = np.random.default_rng(17)
    for _ in range(30):
        d = PolarizationState.from_vector(rng.normal(size=2) + 1j * rng.normal(size=2))
        p = PolarizationState.from_vector(rng.normal(size=2) + 1j * rng.normal(size=2))
        cfg = AnalyzerConfig(
            transmittance_h=rng.uniform(0.2, 0.8), transmittance_v=rng.uniform(0.2, 0.8)
        )
        a = distinguishable_outcome_probs(tensor(d, p), cfg)
        b = distinguishable_outcome_probs(tensor(p, d), cfg)
        assert abs(a.psi_plus - b.psi_plus) < 1e-12
        assert abs(a.psi_minus - b.psi_minus) < 1e-12


def test_classify_mapping():
    assert classify(("D1", "D3")) == Outcome.PSI_PLUS
    assert classify(("D2", "D4")) == Outcome.PSI_PLUS
    assert classify(("D1", "D2")) == Outcome.PSI_MINUS
    assert classify(("D3", "D4")) == Outcome.PSI_MINUS
    assert classify(("D2", "D2")) == Outcome.INCONCLUSIVE
    assert classify(("D1", "D4")) == Outcome.INCONCLUSIVE
    assert classify(("D2", "D3")) == Outcome.INCONCLUSIVE


def test_classify_rejects_bad_patterns():
    with pytest.raises(ValueError):
        classify(("D1",))
    with pytest.raises(ValueError):
        classify(("D1", "D2", "D3"))
    with pytest.raises(ValueError):
        classify(("D1", "D9"))


def test_detector_map_override_relabels_patterns():
    # swapping the wiring of the two ports' H detectors keeps the physics but
    # relabels which mode pairs count as Psi+
    default_outcomes = pattern_outcomes(AnalyzerConfig())
    swapped = AnalyzerConfig(detector_map=("D4", "D2", "D1", "D3"))
    swapped_outcomes = pattern_outcomes(swapped)
    assert default_outcomes != swapped_outcomes
    p = ideal_outcome_probs(PSI_PLUS, swapped)
    # modes (1H, 2V) now read D4 & D3 -> Psi-, (1V, 2H) read D2 & D1 -> Psi-
    assert abs(p.psi_minus - 1.0) < 1e-12


# deterministic examples, so that the suite reruns identically
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

angles = st.floats(-360.0, 360.0)
transmittances = st.floats(0.01, 0.99)
overlaps = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@PROPERTY_SETTINGS
@given(t_h=transmittances, t_v=transmittances, geometric_phase=st.booleans())
def test_bs_transform_unitary(t_h, t_v, geometric_phase):
    cfg = AnalyzerConfig(transmittance_h=t_h, transmittance_v=t_v, geometric_phase=geometric_phase)
    u = bs_transform(cfg)
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_ideal_outcome_probs_match_bell_projection_on_product_states(seed):
    state = random_product_state(np.random.default_rng(seed))
    got = ideal_outcome_probs(state, IDEAL)
    want = bell_projection_probs(state)
    assert np.max(np.abs(np.subtract(got, want))) < 1e-12


def reference_pattern_probs(state, config, mode_overlap):
    """Per-pattern loop over a = U psi U^T, written out independently of the batched core."""
    u = bs_transform(config)
    psi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            psi[i, 2 + j] = state.amplitudes[2 * i + j]
    a = u @ psi @ u.T
    probs = []
    for k, l in PATTERNS:
        if k == l:
            quantum, distinguishable = 2.0 * abs(a[k, k]) ** 2, abs(a[k, k]) ** 2
        else:
            quantum = abs(a[k, l] + a[l, k]) ** 2
            distinguishable = abs(a[k, l]) ** 2 + abs(a[l, k]) ** 2
        probs.append(mode_overlap * quantum + (1.0 - mode_overlap) * distinguishable)
    return np.array(probs)


def aggregate(pattern_probs, config):
    totals = dict.fromkeys(Outcome, 0.0)
    for p, outcome in zip(pattern_probs, pattern_outcomes(config)):
        totals[outcome] += p
    return [totals[Outcome.PSI_PLUS], totals[Outcome.PSI_MINUS], totals[Outcome.INCONCLUSIVE]]


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    t_h=transmittances,
    t_v=transmittances,
    geometric_phase=st.booleans(),
    m=overlaps,
)
def test_pattern_probs_match_reference_loop(seed, t_h, t_v, geometric_phase, m):
    cfg = AnalyzerConfig(transmittance_h=t_h, transmittance_v=t_v, geometric_phase=geometric_phase)
    rng = np.random.default_rng(seed)
    states = [random_state(rng) for _ in range(3)]
    amps = np.array([s.amplitudes for s in states])
    batch = pattern_probs_batch(amps, cfg, m)
    # one overlap per state gives each row exactly what a batch-wide overlap gives
    per_row = [m, 0.3, 1.0 - m]
    rows = pattern_probs_batch(amps, cfg, np.array(per_row))
    for i, m_i in enumerate(per_row):
        assert np.array_equal(rows[i], pattern_probs_batch(amps, cfg, m_i)[i])
    for state, got in zip(states, batch):
        want = reference_pattern_probs(state, cfg, m)
        assert np.max(np.abs(got - want)) < 1e-12


@PROPERTY_SETTINGS
@given(
    recipe=st.tuples(angles, angles, angles, angles),
    jitter=st.integers(1, 6).flatmap(
        lambda n: st.lists(st.floats(-5.0, 5.0), min_size=4 * n, max_size=4 * n)
    ),
    t_h=transmittances,
    t_v=transmittances,
    m=overlaps,
)
def test_batched_outcome_probs_match_scalar_path(recipe, jitter, t_h, t_v, m):
    cfg = AnalyzerConfig(transmittance_h=t_h, transmittance_v=t_v)
    # [period, photon (data, program), plate (QWP, HWP)]
    settings_deg = np.reshape(recipe, (2, 2)) + np.reshape(jitter, (-1, 2, 2))
    jones = recipe_vectors(settings_deg)
    product = np.einsum("ni,nj->nij", jones[:, 0], jones[:, 1]).reshape(-1, 4)
    got = outcome_probs_batch(product, cfg, m)
    assert got.shape == (len(settings_deg), 3)
    for row, (data_deg, program_deg) in zip(got, settings_deg):
        state = tensor(
            prepare_from_recipe(PrepRecipe(*data_deg)), prepare_from_recipe(PrepRecipe(*program_deg))
        )
        want = aggregate(pattern_probs(state, cfg, m), cfg)
        assert np.max(np.abs(row - want)) < 1e-12


def test_batch_rejects_unnormalized_states_and_bad_overlap():
    good = np.array([[1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        pattern_probs_batch(np.array([[1.0, 1.0, 0.0, 0.0]]), IDEAL, 1.0)
    with pytest.raises(ValueError):
        pattern_probs_batch(np.array([[np.nan, 0.0, 0.0, 0.0]]), IDEAL, 1.0)
    with pytest.raises(ValueError):
        pattern_probs_batch(good[0], IDEAL, 1.0)
    with pytest.raises(ValueError):
        pattern_probs_batch(good, IDEAL, float("nan"))
    with pytest.raises(ValueError):
        pattern_probs_batch(np.vstack([good, good]), IDEAL, np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        pattern_probs_batch(np.vstack([good, good]), IDEAL, np.full(3, 0.5))


def random_product_inputs(seed, n):
    """Jones and Stokes vectors of n random plate settings per photon, and n mode overlaps."""
    rng = np.random.default_rng(seed)
    # [state, photon (data, program), plate (QWP, HWP)]
    settings_deg = rng.uniform(-360.0, 360.0, size=(n, 2, 2))
    row_overlaps = rng.uniform(size=n)
    row_overlaps[: min(n, 2)] = [0.0, 1.0][: min(n, 2)]
    jones = recipe_vectors(settings_deg)
    stokes = stokes_from_angles(settings_deg[..., 0], settings_deg[..., 1])
    return jones, stokes, row_overlaps


any_analyzer = st.builds(
    AnalyzerConfig,
    transmittance_h=transmittances,
    transmittance_v=transmittances,
    geometric_phase=st.booleans(),
    detector_map=st.permutations(DETECTORS).map(tuple),
)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), cfg=any_analyzer)
def test_stokes_form_equals_the_general_path(seed, cfg):
    # every wiring, with and without the geometric phase, at any splitting ratio
    jones, stokes, row_overlaps = random_product_inputs(seed, 20)
    product = np.einsum("ni,nj->nij", jones[:, 0], jones[:, 1]).reshape(-1, 4)
    want = outcome_probs_batch(product, cfg, row_overlaps)
    got = stokes_outcome_probs(stokes[:, 0], stokes[:, 1], cfg, row_overlaps)
    assert got.shape == (20, 3)
    assert np.max(np.abs(got - want)) < 1e-13


@pytest.mark.parametrize(
    "cfg, want",
    [
        (
            IDEAL,
            (
                ((0.25, 0.0), (0.0, 0.0), (0.0, 0.0), (-0.25, 0.0), (0.0, 0.25)),
                ((0.25, 0.0), (0.0, 0.0), (0.0, 0.0), (-0.25, 0.0), (0.0, -0.25)),
                ((0.5, 0.0), (0.0, 0.0), (0.0, 0.0), (0.5, 0.0), (0.0, 0.0)),
            ),
        ),
        (
            AnalyzerConfig(transmittance_h=0.53, transmittance_v=0.48, mode_overlap=0.92),
            (
                ((0.2494, 0.0), (0.0, 0.0), (0.0, 0.0), (-0.2494, 0.0), (0.0, 0.24934987467412129)),
                ((0.2506, 0.0), (0.0, 0.0), (0.0, 0.0), (-0.2506, 0.0), (0.0, -0.24934987467412129)),
                ((0.5, 0.0), (0.0, 0.0), (0.0, 0.0), (0.5, 0.0), (0.0, 0.0)),
            ),
        ),
        (
            AnalyzerConfig(
                transmittance_h=0.55, geometric_phase=False, detector_map=("D1", "D3", "D4", "D2")
            ),
            (
                ((0.25, 0.0), (0.0, 0.0), (0.0, 0.0), (-0.25, 0.0), (0.0, 0.248746859276655)),
                ((0.25, 0.0), (0.0, 0.0), (0.0, 0.0), (-0.25, 0.0), (0.0, -0.248746859276655)),
                ((0.5, 0.0), (0.0, 0.0), (0.0, 0.0), (0.5, 0.0), (0.0, 0.0)),
            ),
        ),
    ],
    ids=["ideal", "realistic", "rewired-no-phase"],
)
def test_stokes_terms_are_pinned(cfg, want):
    # the (K_dist, K_bos) pairs per class and monomial (1, z_d, z_p, z_d z_p, E), to the bit; the
    # ideal row is README's p+- = A+-(1 - z_d z_p) +- M B E with A+- = B = 1/4
    assert _stokes_terms(cfg) == want


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50), cfg=any_analyzer, same=st.booleans())
def test_skipping_zero_entries_changes_no_bit(seed, n, cfg, same):
    # every entry of every row evaluated, zeros included, then the floor: the same bits as the kernel
    _, stokes, row_overlaps = random_product_inputs(seed, n)
    d, p = stokes[:, 0], stokes[:, 0] if same else stokes[:, 1]
    monomials = (1.0, d[:, 0], p[:, 0], d[:, 0] * p[:, 0], d[:, 1] * p[:, 1] + d[:, 2] * p[:, 2])
    want = np.empty((n, 3))
    for c, row in enumerate(_stokes_terms(cfg)):
        total = 0.0
        for monomial, (dist, bos) in zip(monomials, row):
            total = total + (dist + bos * row_overlaps) * monomial
        want[:, c] = total
    want = np.where(want < _PROB_FLOOR, 0.0, want)
    got = stokes_outcome_probs(d, p, cfg, row_overlaps)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50), cfg=any_analyzer)
def test_stokes_form_rows_do_not_depend_on_the_batch(seed, n, cfg):
    _, stokes, row_overlaps = random_product_inputs(seed, n)
    batch = stokes_outcome_probs(stokes[:, 0], stokes[:, 1], cfg, row_overlaps)
    for i in range(n):
        alone = stokes_outcome_probs(stokes[i : i + 1, 0], stokes[i : i + 1, 1], cfg, row_overlaps[i])
        assert np.array_equal(batch[i], alone[0])


@PROPERTY_SETTINGS
@given(qwp=angles, hwp=angles)
def test_stokes_form_gives_exact_zeros_where_a_class_is_unreachable(qwp, hwp):
    # balanced splitter, full overlap: data in the program's state never gives
    # Psi-, and data in its negated-angle partner never Psi+; both are exactly 0
    program = stokes_from_angles(np.full(2, qwp), np.full(2, hwp))
    data = stokes_from_angles(np.array([qwp, -qwp]), np.array([hwp, -hwp]))
    probs = stokes_outcome_probs(data, program, IDEAL, 1.0)
    assert probs[0, 1] == 0.0 and probs[1, 0] == 0.0


def test_the_ideal_discriminator_point_gives_an_exact_zero():
    # (epsilon, theta) = (0, 90): the plus input equals the program, whose Stokes vector carries
    # an x component of 1.2e-16; the Psi+ residue of 7.5e-33 is returned as exactly 0
    plus, _, program = stokes_from_angles(*discriminator_angles(0.0, 90.0).T)
    assert stokes_outcome_probs(plus[None], program[None], IDEAL, 1.0).tolist() == [[0.0, 0.0, 1.0]]


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50), cfg=any_analyzer, same=st.booleans())
def test_stokes_form_values_are_zero_or_at_least_the_floor(seed, n, cfg, same):
    # a residue of either sign is returned as 0; with `same`, the data photon equals the program,
    # so one class is unreachable in every row
    _, stokes, row_overlaps = random_product_inputs(seed, n)
    program = stokes[:, 0] if same else stokes[:, 1]
    probs = stokes_outcome_probs(stokes[:, 0], program, cfg, row_overlaps)
    assert np.all((probs == 0.0) | (probs >= _PROB_FLOOR))


def test_stokes_form_rejects_bad_input():
    h, v = np.array([[1.0, 0.0, 0.0]]), np.array([[-1.0, 0.0, 0.0]])
    assert np.array_equal(stokes_outcome_probs(h, v, IDEAL, 1.0), [[0.5, 0.5, 0.0]])
    overlap_count = re.escape("expected 1 or 1 mode overlaps, got 2")
    for data, program, overlap, message in (
        (np.array([[1.0, 1.0, 0.0]]), v, 1.0, None),
        (np.array([[np.nan, 0.0, 0.0]]), v, 1.0, None),
        (h[0], v[0], 1.0, None),
        (np.array([[1.0, 0.0]]), v, 1.0, None),
        (np.vstack([h, h]), v, 1.0, None),
        (h, v, 1.5, None),
        (h, v, np.full(2, 0.5), overlap_count),
    ):
        with pytest.raises(ValueError, match=message):
            stokes_outcome_probs(data, program, IDEAL, overlap)
    # the general path would broadcast two overlaps over one state into two rows
    with pytest.raises(ValueError, match=overlap_count):
        pattern_probs_batch(np.array([[1.0, 0.0, 0.0, 0.0]]), IDEAL, np.full(2, 0.5))


def test_unnormalized_stokes_rows_are_named_on_one_line():
    data = np.tile([1.0, 0.0, 0.0], (40, 1))
    data[25] = np.nan
    data[30] = [2.0, 0.0, 0.0]
    with pytest.raises(ValueError) as raised:
        stokes_outcome_probs(data, data, IDEAL, 1.0)
    assert str(raised.value) == "data Stokes vectors are not normalized: row 25 has norm^2 nan"
