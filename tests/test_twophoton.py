import numpy as np
import pytest

from bellmeter.polarization import PolarizationState, prepare_elliptical, prepare_equatorial
from bellmeter.twophoton import (
    BELL_STATES,
    TwoPhotonState,
    bell_probabilities,
    tensor,
)

# frozen with mpmath: minus-branch Bell coefficients for a=cos20, b=sin20
C_PHI_PLUS_20 = 0.5416752204197019
C_PHI_MINUS_20 = 0.7071067811865476
C_PSI_MINUS_20 = 0.4545194776720437
P_PSI_MINUS_20 = 0.2065879555832674

H = PolarizationState(1.0, 0.0)
V = PolarizationState(0.0, 1.0)


def linear(deg):
    return PolarizationState(np.cos(np.radians(deg)), np.sin(np.radians(deg)))


def test_bell_states_orthonormal():
    gram = BELL_STATES.conj() @ BELL_STATES.T
    assert np.max(np.abs(gram - np.eye(4))) < 1e-15


def test_tensor_examples():
    assert np.allclose(tensor(H, V).amplitudes, [0, 1, 0, 0])
    assert np.allclose(tensor(linear(45.0), H).amplitudes, [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0])


def test_tensor_rejects_nothing_but_matches_products():
    rng = np.random.default_rng(42)
    for _ in range(25):
        d = PolarizationState.from_vector(rng.normal(size=2) + 1j * rng.normal(size=2))
        p = PolarizationState.from_vector(rng.normal(size=2) + 1j * rng.normal(size=2))
        amps = tensor(d, p).amplitudes
        for i, di in enumerate((d.h, d.v)):
            for j, pj in enumerate((p.h, p.v)):
                assert abs(amps[2 * i + j] - di * pj) < 1e-15


def test_bell_probabilities_hv():
    p = bell_probabilities(TwoPhotonState(np.array([0, 1, 0, 0], dtype=complex)))
    assert p.phi_plus < 1e-30 and p.phi_minus < 1e-30
    assert abs(p.psi_plus - (1 / np.sqrt(2)) ** 2) < 1e-15
    assert abs(p.psi_minus - (1 / np.sqrt(2)) ** 2) < 1e-15


def test_bell_probabilities_symmetric_pair_closed_form():
    # plus branch with a = b = 1/sqrt(2): coefficients (1/sqrt2, 0, 1/sqrt2, 0)
    state = tensor(prepare_elliptical(0.0, 45.0, +1), prepare_elliptical(0.0, 45.0, +1))
    p = bell_probabilities(state)
    assert abs(p.phi_plus - (1 / np.sqrt(2)) ** 2) < 1e-12
    assert p.phi_minus < 1e-24
    assert abs(p.psi_plus - (1 / np.sqrt(2)) ** 2) < 1e-12
    assert p.psi_minus < 1e-24


def test_bell_probabilities_minus_branch_values():
    state = tensor(prepare_elliptical(0.0, 20.0, -1), prepare_elliptical(0.0, 20.0, +1))
    p = bell_probabilities(state)
    assert abs(p.phi_plus - C_PHI_PLUS_20**2) < 1e-12
    assert abs(p.phi_minus - C_PHI_MINUS_20**2) < 1e-12
    assert abs(p.psi_minus - C_PSI_MINUS_20**2) < 1e-12
    assert p.psi_plus < 1e-24
    assert abs(sum(p) - 1.0) < 1e-12


def test_closed_form_coefficients_for_real_pairs():
    # |phi^pm_d> x |phi_p> = sqrt2 [ (a^2 pm b^2)/2 Phi+ + (a^2 mp b^2)/2 Phi- + ab Psi^pm ]
    for theta in np.arange(0.0, 91.0, 7.5):
        a, b = np.cos(np.radians(theta)), np.sin(np.radians(theta))
        program = PolarizationState.from_vector([a, b])
        for sign in (+1, -1):
            data = PolarizationState.from_vector([a, sign * b])
            p = bell_probabilities(tensor(data, program))
            sq2 = np.sqrt(2.0)
            assert abs(p.phi_plus - (sq2 * (a * a + sign * b * b) / 2) ** 2) < 1e-12
            assert abs(p.phi_minus - (sq2 * (a * a - sign * b * b) / 2) ** 2) < 1e-12
            if sign > 0:
                assert abs(p.psi_plus - (sq2 * a * b) ** 2) < 1e-12
                assert p.psi_minus < 1e-24  # error-free channel
            else:
                assert abs(p.psi_minus - (sq2 * a * b) ** 2) < 1e-12
                assert p.psi_plus < 1e-24


def test_bell_probabilities_examples():
    p = bell_probabilities(tensor(prepare_elliptical(0.0, 45.0, +1), prepare_elliptical(0.0, 45.0, +1)))
    assert abs(p.psi_plus - 0.5) < 1e-12 and abs(p.psi_minus) < 1e-12
    assert abs(p.phi_plus - 0.5) < 1e-12 and abs(p.phi_minus) < 1e-12

    p_hh = bell_probabilities(TwoPhotonState(np.array([1, 0, 0, 0], dtype=complex)))
    assert abs(p_hh.phi_plus - 0.5) < 1e-12 and abs(p_hh.phi_minus - 0.5) < 1e-12
    assert p_hh.psi_plus == pytest.approx(0.0, abs=1e-15)

    p_minus = bell_probabilities(
        tensor(prepare_elliptical(0.0, 20.0, -1), prepare_elliptical(0.0, 20.0, +1))
    )
    assert abs(p_minus.psi_minus - P_PSI_MINUS_20) < 1e-12
    assert p_minus.psi_plus < 1e-24


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(321)
    for _ in range(200):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        assert abs(sum(bell_probabilities(TwoPhotonState(v))) - 1.0) < 1e-12


def test_equatorial_pairs_split_half_and_half():
    # underlies the flat inconclusive rate: P(Phi+) + P(Phi-) = 1/2 for every phi
    for phi in np.arange(-90.0, 91.0, 8.0):
        program = prepare_equatorial(phi, +1)
        for sign in (+1, -1):
            p = bell_probabilities(tensor(prepare_equatorial(phi, sign), program))
            assert abs(p.phi_plus + p.phi_minus - 0.5) < 1e-12
            assert abs(p.psi_plus + p.psi_minus - 0.5) < 1e-12
            # and the conclusive weight sits entirely on the matching class
            if sign > 0:
                assert p.psi_minus < 1e-24
            else:
                assert p.psi_plus < 1e-24


def test_state_validation():
    with pytest.raises(ValueError):
        TwoPhotonState(np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        TwoPhotonState(np.zeros(3))
