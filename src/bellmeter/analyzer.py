"""Linear-optics partial Bell analyzer.

Model of the coincidence apparatus: a (possibly unbalanced) non-polarizing
beamsplitter carrying the geometric 180-degree phase between the horizontal
components of its two counter-propagating inputs, one polarizing beamsplitter
per output port, and four single-photon detectors.

Mode convention: the data photon enters input port 1, the program photon
input port 2.  The four spatial/polarization modes are ordered

    0 = (port 1, H),  1 = (port 1, V),  2 = (port 2, H),  3 = (port 2, V)

and keep that meaning at the output.  The default detector wiring is
D1=(1,H), D2=(1,V), D4=(2,H), D3=(2,V), which reproduces the coincidence
table: D1&D3 or D2&D4 fire together for Psi+, D1&D2 or D3&D4 for Psi-,
anything else (including both photons in one detector) is inconclusive.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from numbers import Real
from typing import NamedTuple, Sequence

import numpy as np

from .twophoton import TwoPhotonState, bell_probabilities

DETECTORS = ("D1", "D2", "D3", "D4")

# default wiring of the mode order (1H, 1V, 2H, 2V) to detector labels
DEFAULT_DETECTOR_MAP = ("D1", "D2", "D4", "D3")

# unordered two-photon output patterns over the 4 modes, (k, l) with k <= l
PATTERNS: tuple[tuple[int, int], ...] = tuple(
    (k, l) for k in range(4) for l in range(k, 4)
)

# row/column indices of PATTERNS into the symmetric 4x4 pattern matrix, and the
# factor mapping its entries to pattern probabilities (see pattern_probs_batch)
_PATTERN_ROWS, _PATTERN_COLS = np.array(PATTERNS).T
_PATTERN_WEIGHTS = np.where(_PATTERN_ROWS == _PATTERN_COLS, 0.5, 1.0)

_NORM_TOL = 1e-9

_PSI_PLUS_PAIRS = (frozenset({"D1", "D3"}), frozenset({"D2", "D4"}))
_PSI_MINUS_PAIRS = (frozenset({"D1", "D2"}), frozenset({"D3", "D4"}))


class Outcome(enum.IntEnum):
    """Result of one analyzed photon pair."""

    INCONCLUSIVE = 0
    PSI_PLUS = 1
    PSI_MINUS = 2


class OutcomeProbs(NamedTuple):
    psi_plus: float
    psi_minus: float
    inconclusive: float


@dataclass(frozen=True)
class AnalyzerConfig:
    """Static parameters of the Bell analyzer.

    transmittance_h/v are intensity transmittances of the beamsplitter for the
    two linear polarizations (identical at both input ports); mode_overlap is
    the scalar indistinguishability of the two photons at the beamsplitter;
    geometric_phase applies the extra 180-degree phase to the horizontal
    component of input port 2.
    """

    transmittance_h: float = 0.5
    transmittance_v: float = 0.5
    mode_overlap: float = 1.0
    geometric_phase: bool = True
    detector_map: tuple[str, str, str, str] = DEFAULT_DETECTOR_MAP

    def __post_init__(self):
        for name in ("transmittance_h", "transmittance_v"):
            value = getattr(self, name)
            if not isinstance(value, Real) or not 0.0 < value < 1.0:
                raise ValueError(f"beamsplitter {name} must lie in (0, 1), got {value!r}")
        if not isinstance(self.mode_overlap, Real) or not 0.0 <= self.mode_overlap <= 1.0:
            raise ValueError(f"mode_overlap must lie in [0, 1], got {self.mode_overlap!r}")
        if not isinstance(self.geometric_phase, bool):
            raise ValueError(f"geometric_phase must be true or false, got {self.geometric_phase!r}")
        if not isinstance(self.detector_map, (tuple, list)) or sorted(
            self.detector_map, key=str
        ) != sorted(DETECTORS):
            raise ValueError(
                f"detector_map must be a permutation of {DETECTORS}, got {self.detector_map!r}"
            )
        # a tuple keeps the config hashable; _config_tables caches on it
        object.__setattr__(self, "detector_map", tuple(self.detector_map))


def bs_transform(config: AnalyzerConfig) -> np.ndarray:
    """4x4 single-photon mode transform of the beamsplitter.

    Block diagonal in polarization; each block is a real unitary built from
    the polarization's amplitude transmittance/reflectance.  With the
    geometric phase enabled the H block of input port 2 picks up a sign flip,
    which is what swaps the bunching roles of Psi+ and Psi-.
    """
    t_h, r_h = np.sqrt(config.transmittance_h), np.sqrt(1.0 - config.transmittance_h)
    t_v, r_v = np.sqrt(config.transmittance_v), np.sqrt(1.0 - config.transmittance_v)
    g = -1.0 if config.geometric_phase else 1.0
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0], u[0, 2] = t_h, g * r_h
    u[2, 0], u[2, 2] = r_h, -g * t_h
    u[1, 1], u[1, 3] = t_v, r_v
    u[3, 1], u[3, 3] = r_v, -t_v
    return u


@functools.lru_cache(maxsize=64)
def _config_tables(config: AnalyzerConfig) -> tuple[np.ndarray, np.ndarray]:
    """bs_transform and the (pattern, class) indicator matrix of a config, built once per config.

    Class columns follow OutcomeProbs: Psi+, Psi-, inconclusive.  The arrays
    are shared between callers and therefore read-only.
    """
    u = bs_transform(config)
    classes = np.array(
        [
            [o == c for c in (Outcome.PSI_PLUS, Outcome.PSI_MINUS, Outcome.INCONCLUSIVE)]
            for o in pattern_outcomes(config)
        ],
        dtype=float,
    )
    u.setflags(write=False)
    classes.setflags(write=False)
    return u, classes


def pattern_probs_batch(
    amplitudes: np.ndarray, config: AnalyzerConfig, mode_overlap: float
) -> np.ndarray:
    """Output-pattern probabilities of a batch of two-photon states, shape (n, len(PATTERNS)).

    `amplitudes` holds n normalized states on the (HH, HV, VH, VV) basis, shape
    (n, 4).  The data photon enters in modes 0/1 and the program photon in
    modes 2/3, so the joint output amplitude is a = U psi U^T, where psi
    holds the state's 2x2 amplitude block in rows 0/1 and columns 2/3 and
    U = bs_transform(config).  Bosonic photons add the amplitudes of the two
    orderings of an output pair, |a_kl + a_lk|^2; distinguishable photons add
    their probabilities, |a_kl|^2 + |a_lk|^2; partially distinguishable
    photons mix the two with weight mode_overlap.  A photon pair in one mode
    (k = l) counts half of the symmetric sum.
    """
    if not 0.0 <= mode_overlap <= 1.0:
        raise ValueError(f"mode overlap must lie in [0, 1], got {mode_overlap}")
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.ndim != 2 or amps.shape[1] != 4:
        raise ValueError(f"expected amplitudes of shape (n, 4), got {amps.shape}")
    norm_sq = np.sum(amps.real**2 + amps.imag**2, axis=1)
    if not np.all(np.abs(norm_sq - 1.0) <= _NORM_TOL):
        raise ValueError(f"two-photon states are not normalized: {norm_sq}")
    u, _ = _config_tables(config)
    a = u[:, :2] @ amps.reshape(-1, 2, 2) @ u[:, 2:].T
    a_swapped = a.swapaxes(1, 2)
    sym = mode_overlap * np.abs(a + a_swapped) ** 2 + (1.0 - mode_overlap) * (
        np.abs(a) ** 2 + np.abs(a_swapped) ** 2
    )
    return sym[:, _PATTERN_ROWS, _PATTERN_COLS] * _PATTERN_WEIGHTS


def outcome_probs_batch(
    amplitudes: np.ndarray, config: AnalyzerConfig, mode_overlap: float
) -> np.ndarray:
    """Psi+/Psi-/inconclusive probabilities of a batch of states, shape (n, 3).

    Columns follow OutcomeProbs; see pattern_probs_batch for the arguments.
    """
    return pattern_probs_batch(amplitudes, config, mode_overlap) @ _config_tables(config)[1]


def quantum_pattern_probs(state: TwoPhotonState, config: AnalyzerConfig) -> np.ndarray:
    """Output-pattern probabilities for fully indistinguishable (bosonic) photons.

    Propagates the two-photon amplitude through bs_transform and collects the
    coefficient of each unordered pair of output modes, in PATTERNS order.
    """
    return pattern_probs_batch(state.amplitudes[None], config, 1.0)[0]


def distinguishable_pattern_probs(state: TwoPhotonState, config: AnalyzerConfig) -> np.ndarray:
    """Output-pattern probabilities for fully distinguishable photons.

    Each photon is routed independently (no two-photon interference); the
    joint amplitudes of the ordered mode pairs are squared individually.
    """
    return pattern_probs_batch(state.amplitudes[None], config, 0.0)[0]


def mixed_pattern_probs(
    state: TwoPhotonState, config: AnalyzerConfig, mode_overlap: float | None = None
) -> np.ndarray:
    """Partial-distinguishability mixture M * quantum + (1 - M) * distinguishable."""
    m = config.mode_overlap if mode_overlap is None else mode_overlap
    return pattern_probs_batch(state.amplitudes[None], config, m)[0]


def classify(pattern: Sequence[str]) -> Outcome:
    """Map a detector coincidence pattern (two fired detectors) to an outcome.

    D1&D3 or D2&D4 -> Psi+; D1&D2 or D3&D4 -> Psi-; everything else,
    including both photons in the same detector and the remaining cross
    pairs D1&D4 and D2&D3, is inconclusive.
    """
    fired = tuple(pattern)
    if len(fired) != 2:
        raise ValueError(f"a coincidence pattern must contain exactly 2 photons, got {len(fired)}")
    for d in fired:
        if d not in DETECTORS:
            raise ValueError(f"unknown detector {d!r}")
    pair = frozenset(fired)
    if pair in _PSI_PLUS_PAIRS:
        return Outcome.PSI_PLUS
    if pair in _PSI_MINUS_PAIRS:
        return Outcome.PSI_MINUS
    return Outcome.INCONCLUSIVE


def pattern_outcomes(config: AnalyzerConfig) -> tuple[Outcome, ...]:
    """Outcome of each entry of PATTERNS under the configured detector wiring."""
    return tuple(
        classify((config.detector_map[k], config.detector_map[l])) for (k, l) in PATTERNS
    )


def _aggregate(probs: np.ndarray, config: AnalyzerConfig) -> OutcomeProbs:
    return OutcomeProbs(*(float(p) for p in probs @ _config_tables(config)[1]))


def ideal_outcome_probs(state: TwoPhotonState, config: AnalyzerConfig) -> OutcomeProbs:
    """Outcome probabilities for perfectly overlapping photons.

    For a balanced beamsplitter with the geometric phase this equals the Bell
    projection probabilities (|c_Psi+|^2, |c_Psi-|^2, |c_Phi+|^2 + |c_Phi-|^2).
    """
    return _aggregate(quantum_pattern_probs(state, config), config)


def distinguishable_outcome_probs(state: TwoPhotonState, config: AnalyzerConfig) -> OutcomeProbs:
    """Outcome probabilities for temporally separated (non-interfering) photons."""
    return _aggregate(distinguishable_pattern_probs(state, config), config)


def bell_projection_probs(state: TwoPhotonState) -> OutcomeProbs:
    """Reference probabilities (Psi+, Psi-, rest) straight from the Bell decomposition."""
    p = bell_probabilities(state)
    return OutcomeProbs(p.psi_plus, p.psi_minus, p.phi_plus + p.phi_minus)
