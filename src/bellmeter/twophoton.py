"""Composite data (x) program states and their Bell-basis probabilities.

Basis ordering is fixed everywhere: product basis (HH, HV, VH, VV) with the
data photon first, Bell basis (Phi+, Phi-, Psi+, Psi-).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .polarization import NORM_TOL, PolarizationState

_SQ2 = np.sqrt(2.0)

# rows: Phi+, Phi-, Psi+, Psi- on the (HH, HV, VH, VV) basis
BELL_STATES = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, -1.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, -1.0, 0.0],
    ],
    dtype=complex,
) / _SQ2


@dataclass(frozen=True)
class TwoPhotonState:
    """Normalized two-photon polarization state on the (HH, HV, VH, VV) basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (4,):
            raise ValueError(f"expected 4 amplitudes, got shape {amps.shape}")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"two-photon state is not normalized: {norm_sq}")
        object.__setattr__(self, "amplitudes", amps)


class BellProbs(NamedTuple):
    phi_plus: float
    phi_minus: float
    psi_plus: float
    psi_minus: float


def tensor(data: PolarizationState, program: PolarizationState) -> TwoPhotonState:
    """Product state of a data and a program photon."""
    return TwoPhotonState(np.kron(data.vector, program.vector))


def bell_probabilities(state: TwoPhotonState) -> BellProbs:
    """Squared moduli of the Bell coefficients; these sum to 1."""
    coeffs = BELL_STATES.conj() @ state.amplitudes
    p = np.abs(coeffs) ** 2
    return BellProbs(float(p[0]), float(p[1]), float(p[2]), float(p[3]))
