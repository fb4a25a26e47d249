import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellmeter.polarization import (
    HORIZONTAL,
    VERTICAL,
    PlateKind,
    PolarizationState,
    PrepRecipe,
    WavePlate,
    apply_plate,
    discriminator_angles,
    multimeter_angles,
    overlap,
    prepare_elliptical,
    prepare_equatorial,
    prepare_from_recipe,
    recipe_discriminator,
    recipe_multimeter,
    stokes_from_angles,
    waveplate_matrix,
)

# frozen with mpmath at 40 digits: x^2 cos^2(20) + y^2 sin^2(20), x=cos24, y=sin24
H_AMP_SQ_24_20 = 0.7562918913610178
COS_40 = 0.7660444431189780


def states_equal_up_to_phase(s1, s2, tol=1e-10):
    return abs(abs(overlap(s1, s2)) - 1.0) <= tol


def test_state_normalization_enforced():
    with pytest.raises(ValueError):
        PolarizationState(1.0, 1.0)
    s = PolarizationState.from_vector([3.0, 4.0])
    assert abs(s.h - 0.6) < 1e-12 and abs(s.v - 0.8) < 1e-12


def test_a_zero_jones_vector_is_refused():
    with pytest.raises(ValueError, match="^cannot normalize a zero Jones vector$"):
        PolarizationState.from_vector([0.0, 0.0])


def test_hwp_at_zero_is_diag_1_minus1():
    m = waveplate_matrix(WavePlate(PlateKind.HALF, 0.0))
    assert np.allclose(m, np.diag([1.0, -1.0]), atol=1e-12)


def test_qwp_at_zero_applies_90_degree_relative_phase():
    m = waveplate_matrix(WavePlate(PlateKind.QUARTER, 0.0))
    assert abs(m[0, 1]) < 1e-12 and abs(m[1, 0]) < 1e-12
    ratio = m[1, 1] / m[0, 0]
    assert abs(abs(ratio) - 1.0) < 1e-12
    # 90 degrees of relative phase between H and V; the sign of the quarter
    # retardance is the one that makes the two-plate recipes reproduce their
    # targets, which puts V a quarter wave behind H.
    assert abs(ratio - (-1j)) < 1e-12


def test_hwp_rotates_linear_polarization():
    # linear at gamma -> linear at 2*beta - gamma
    for beta, gamma in [(22.5, 0.0), (10.0, 50.0), (77.0, 13.0)]:
        state = PolarizationState(np.cos(np.radians(gamma)), np.sin(np.radians(gamma)))
        out = apply_plate(state, WavePlate(PlateKind.HALF, beta))
        expect_angle = np.radians(2 * beta - gamma)
        expected = PolarizationState(np.cos(expect_angle), np.sin(expect_angle))
        assert states_equal_up_to_phase(out, expected, tol=1e-12)


def test_apply_plate_examples():
    diag = apply_plate(HORIZONTAL, WavePlate(PlateKind.HALF, 22.5))
    assert states_equal_up_to_phase(diag, PolarizationState(1 / np.sqrt(2), 1 / np.sqrt(2)), 1e-12)

    v_out = apply_plate(VERTICAL, WavePlate(PlateKind.HALF, 0.0))
    assert states_equal_up_to_phase(v_out, VERTICAL, 1e-12)

    circ = apply_plate(HORIZONTAL, WavePlate(PlateKind.QUARTER, 45.0))
    assert states_equal_up_to_phase(circ, PolarizationState(1 / np.sqrt(2), 1j / np.sqrt(2)), 1e-12)


def test_waveplates_unitary_for_random_angles():
    rng = np.random.default_rng(20240901)
    for kind in (PlateKind.HALF, PlateKind.QUARTER):
        for angle in rng.uniform(-360.0, 360.0, size=500):
            m = waveplate_matrix(WavePlate(kind, angle))
            assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-12


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(-360.0, 360.0), st.sampled_from(PlateKind))
def test_waveplate_matrix_is_the_rotated_retarder(angle, kind):
    # R(theta) diag(1, exp(-i delta)) R(-theta), the convention of its docstring
    th = np.radians(angle)
    rotation = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    delta = np.radians({PlateKind.HALF: 180.0, PlateKind.QUARTER: 90.0}[kind])
    want = rotation @ np.diag([1.0, np.exp(-1j * delta)]) @ rotation.T
    assert np.max(np.abs(waveplate_matrix(WavePlate(kind, angle)) - want)) <= 1e-15


def test_two_hwps_compose_to_identity_up_to_phase():
    rng = np.random.default_rng(11)
    for angle in rng.uniform(0.0, 180.0, size=50):
        m = waveplate_matrix(WavePlate(PlateKind.HALF, angle))
        prod = m @ m
        assert np.max(np.abs(prod / prod[0, 0] - np.eye(2))) < 1e-12


def test_prepare_elliptical_examples():
    assert states_equal_up_to_phase(prepare_elliptical(0.0, 0.0, +1), HORIZONTAL, 1e-12)
    d_plus = prepare_elliptical(0.0, 45.0, +1)
    d_minus = prepare_elliptical(0.0, 45.0, -1)
    assert states_equal_up_to_phase(d_plus, PolarizationState(1 / np.sqrt(2), 1 / np.sqrt(2)), 1e-12)
    assert states_equal_up_to_phase(d_minus, PolarizationState(1 / np.sqrt(2), -1 / np.sqrt(2)), 1e-12)
    s = prepare_elliptical(24.0, 20.0, +1)
    assert abs(abs(s.h) ** 2 - H_AMP_SQ_24_20) < 1e-12


def test_prepare_elliptical_normalized_on_grid():
    for eps in np.arange(0.0, 90.0, 6.0):
        for theta in np.arange(0.0, 91.0, 5.0):
            for sign in (+1, -1):
                s = prepare_elliptical(eps, theta, sign)
                assert abs(abs(s.h) ** 2 + abs(s.v) ** 2 - 1.0) < 1e-12


def test_recipe_discriminator_angles():
    r = recipe_discriminator(24.0, 20.0, +1)
    assert r.qwp_deg == 24.0 and r.hwp_deg == 22.0
    r0 = recipe_discriminator(0.0, 0.0, +1)
    assert r0.qwp_deg == 0.0 and r0.hwp_deg == 0.0
    assert states_equal_up_to_phase(prepare_from_recipe(r0), HORIZONTAL, 1e-12)
    rm = recipe_discriminator(12.0, 40.0, -1)
    assert rm.qwp_deg == -12.0 and rm.hwp_deg == -26.0
    assert states_equal_up_to_phase(
        prepare_from_recipe(rm), prepare_elliptical(12.0, 40.0, -1), 1e-10
    )


def test_recipe_discriminator_matches_target_on_sweep_grid():
    for eps in (0.0, 12.0, 24.0, 36.0):
        for theta in [*np.arange(0.0, 91.0, 4.0), 90.0]:
            for sign in (+1, -1):
                produced = prepare_from_recipe(recipe_discriminator(eps, theta, sign))
                target = prepare_elliptical(eps, theta, sign)
                assert abs(overlap(produced, target)) >= 1.0 - 1e-10


def test_prepare_equatorial_examples():
    assert states_equal_up_to_phase(
        prepare_equatorial(0.0, +1), PolarizationState(1 / np.sqrt(2), 1 / np.sqrt(2)), 1e-12
    )
    assert states_equal_up_to_phase(
        prepare_equatorial(90.0, +1), PolarizationState(1 / np.sqrt(2), 1j / np.sqrt(2)), 1e-12
    )
    # the minus state is the plus state with phi shifted by 180 degrees
    for phi in (-66.0, 0.0, 32.0, 145.0):
        assert states_equal_up_to_phase(
            prepare_equatorial(phi, -1), prepare_equatorial(phi + 180.0, +1), 1e-12
        )


def test_recipe_multimeter_angles():
    r = recipe_multimeter(0.0, +1)
    assert r.qwp_deg == 0.0 and r.hwp_deg == 22.5
    r90 = recipe_multimeter(90.0, +1)
    assert r90.qwp_deg == -45.0 and r90.hwp_deg == 0.0
    r32m = recipe_multimeter(32.0, -1)
    assert r32m.qwp_deg == 16.0 and r32m.hwp_deg == -14.5
    assert states_equal_up_to_phase(
        prepare_from_recipe(r32m), prepare_equatorial(32.0, -1), 1e-10
    )


def test_recipe_multimeter_matches_target_on_sweep_grid():
    for phi in np.arange(-90.0, 91.0, 8.0):
        for sign in (+1, -1):
            produced = prepare_from_recipe(recipe_multimeter(phi, sign))
            target = prepare_equatorial(phi, sign)
            assert abs(overlap(produced, target)) >= 1.0 - 1e-10


def test_overlap_examples():
    assert overlap(HORIZONTAL, HORIZONTAL) == pytest.approx(1.0, abs=1e-15)
    assert overlap(HORIZONTAL, VERTICAL) == pytest.approx(0.0, abs=1e-15)
    plus = prepare_elliptical(0.0, 20.0, +1)
    minus = prepare_elliptical(0.0, 20.0, -1)
    assert abs(overlap(plus, minus) - COS_40) < 1e-12


def test_overlap_conjugate_linear_in_first_argument():
    rng = np.random.default_rng(5)
    for _ in range(20):
        v1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        v2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        s1, s2 = PolarizationState.from_vector(v1), PolarizationState.from_vector(v2)
        assert abs(overlap(s1, s2) - np.conj(overlap(s2, s1))) < 1e-12
        assert abs(overlap(s1, s2)) <= 1.0 + 1e-12


def test_stokes_from_angles_of_the_basis_states():
    # (QWP, HWP) recipes of H, V, +45 and (|H> + i|V>)/sqrt(2), and their Stokes vectors
    recipes = [(0.0, 0.0), (0.0, 45.0), (0.0, 22.5), (-45.0, 0.0)]
    states = [HORIZONTAL, VERTICAL, PolarizationState(1 / np.sqrt(2), 1 / np.sqrt(2)),
              PolarizationState(1 / np.sqrt(2), 1j / np.sqrt(2))]
    for recipe, state in zip(recipes, states):
        assert states_equal_up_to_phase(prepare_from_recipe(PrepRecipe(*recipe)), state, 1e-12)
    got = stokes_from_angles(*np.transpose(recipes))
    assert np.allclose(got, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]], atol=1e-15)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(st.floats(-360.0, 360.0), st.floats(-360.0, 360.0)), min_size=1, max_size=8)
)
def test_stokes_from_angles_is_the_stokes_vector_of_the_recipe(plate_angles):
    qwp_deg, hwp_deg = np.array(plate_angles).T
    got = stokes_from_angles(qwp_deg, hwp_deg)
    assert got.shape == (len(plate_angles), 3)
    for vec, (qwp, hwp) in zip(got, plate_angles):
        h, v = prepare_from_recipe(PrepRecipe(qwp, hwp)).vector
        cross = 2.0 * np.conj(h) * v
        want = [abs(h) ** 2 - abs(v) ** 2, cross.real, cross.imag]
        assert np.max(np.abs(vec - want)) < 1e-12
    # the negated-angle partner has x and y negated and z kept, bit for bit
    assert np.array_equal(stokes_from_angles(-qwp_deg, -hwp_deg), got * [1.0, -1.0, -1.0])
    assert stokes_from_angles(np.zeros((3, 2)), 22.5).shape == (3, 2, 3)


def test_stokes_from_angles_takes_scalars_and_broadcast_views_and_keeps_its_inputs():
    # it works in place on copies of its inputs: a 0-d or read-only broadcast
    # input works, an array given to it is left as it was, and each element
    # gets the bits of a call on its own angles
    qwp = np.array([[10.0], [-33.5]])
    hwp = np.broadcast_to(np.array([0.0, 22.5, 71.25]), (2, 3))
    kept = qwp.copy()
    got = stokes_from_angles(qwp, hwp)
    assert np.array_equal(qwp, kept) and got.shape == (2, 3, 3)
    for i, j in np.ndindex(2, 3):
        alone = stokes_from_angles(np.array(qwp[i, 0]), float(hwp[i, j]))
        assert alone.shape == (3,) and alone.tobytes() == got[i, j].tobytes()


ANGLES = st.floats(-1e300, 1e300)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(ANGLES, ANGLES), max_size=6),
    st.sampled_from([0.0, -0.0, 45.0, -90.0, 5e-324]),
)
def test_sweep_angle_arrays_equal_the_recipes_bit_for_bit(grid, special):
    # rows data plus, data minus, program; signed zeros and a subnormal, where a
    # reordered closed form such as eps / 2 + theta / 2 would round differently.
    # The reference is the closed form of each plate, in Python floats.
    grid = grid + [(special, special), (special, 0.0), (-0.0, special)]
    eps, theta = np.array(grid).T
    want = [[(s * e, s * (e + t) / 2.0) for s in (1.0, -1.0, 1.0)] for e, t in grid]
    assert discriminator_angles(eps, theta).tobytes() == np.array(want).tobytes()
    got = [[(r.qwp_deg, r.hwp_deg) for r in (recipe_discriminator(e, t, s) for s in (1, -1, 1))]
           for e, t in grid]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    want = [[(s * (-phi / 2.0), s * (90.0 - phi) / 4.0) for s in (1.0, -1.0, 1.0)] for phi in eps.tolist()]
    assert multimeter_angles(eps).tobytes() == np.array(want).tobytes()
    got = [[(r.qwp_deg, r.hwp_deg) for r in (recipe_multimeter(phi, s) for s in (1, -1, 1))]
           for phi in eps]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert discriminator_angles(grid[0][0], grid[0][1]).shape == multimeter_angles(eps[0]).shape == (3, 2)


def test_half_wave_plate_angle_halves_the_sum():
    # (eps + theta) / 2 keeps the subnormal that eps / 2 + theta / 2 rounds to 0
    assert discriminator_angles(5e-324, 5e-324)[0, 1] == 5e-324
    assert recipe_discriminator(5e-324, 5e-324, -1).hwp_deg == -5e-324
    assert np.signbit(discriminator_angles(-0.0, -0.0)).tolist() == [[True, True], [False, False], [True, True]]
    assert np.signbit(discriminator_angles(0.0, -0.0)).tolist() == [[False, False], [True, True], [False, False]]
