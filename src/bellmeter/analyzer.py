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

Two entry points give outcome probabilities.  Any two-photon state reaches
its output amplitudes as U psi U^T (pattern_probs_batch); the pattern
probabilities are mixed by the mode overlap and summed per outcome class
(outcome_probs_batch).  Two separately prepared photons take a real-arithmetic
shortcut (stokes_outcome_probs): for a product input every class probability
is a bilinear form in the photons' Stokes vectors n = (z, x, y): a table,
computed once per config (_stokes_terms), holds per class the coefficients
of 1, z_d, z_p, z_d z_p and E = x_d x_p + y_d y_p.  With the default wiring

    p+- = A+-(1 - z_d z_p) +- M B (x_d x_p + y_d y_p),    p? = (1 + z_d z_p) / 2,

with A+ = (T_h T_v + R_h R_v) / 2, A- = (T_h R_v + R_h T_v) / 2 and
B = sqrt(T_h R_h T_v R_v) (all 1/4 for a 50:50 splitter); the equatorial
term is the phase covariance the multimeter relies on.  The general path
stays as the oracle of the shortcut, and bell_projection_probs (the one
importer of twophoton, which no sweep loads) as the oracle of the general path.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from operator import ge, gt, le, lt
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .polarization import NORM_TOL

if TYPE_CHECKING:
    from .twophoton import TwoPhotonState

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

_PSI_PLUS_PAIRS = (frozenset({"D1", "D3"}), frozenset({"D2", "D4"}))
_PSI_MINUS_PAIRS = (frozenset({"D1", "D2"}), frozenset({"D3", "D4"}))


def check_fields(cls: type, values: Mapping) -> None:
    """ValueError unless, for each "float", "int" or "bool" field of dataclass `cls` that `values` names, its value
    there is a finite number, an integer or a bool (a bool is neither number; the types are postponed annotations)
    and lies in its "bounds" (check_bounds)."""
    for f in (f for f in fields(cls) if f.name in values):
        value = values[f.name]
        if f.type == "float" and (  # compared, not math.isfinite, which overflows on an int beyond the float range
            not isinstance(value, Real) or isinstance(value, bool) or not abs(value) <= sys.float_info.max
        ):
            raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if f.type == "int" and (not isinstance(value, Integral) or isinstance(value, bool)):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if f.type == "bool" and not isinstance(value, bool):
            raise ValueError(f"{f.name} must be true or false, got {value!r}")
        if "bounds" in f.metadata:
            check_bounds(cls, f.name, value)


@functools.cache
def _bounds(owner: type, name: str) -> tuple[str, Callable, Callable]:
    """The "bounds" text of field `name` of dataclass `owner`, such as "(0, 1]", and its endpoint tests."""
    text = next(f.metadata["bounds"] for f in fields(owner) if f.name == name)
    low, high = map(float, text[1:-1].split(","))
    above_low = functools.partial(le if text[0] == "[" else lt, low)
    return text, above_low, functools.partial(ge if text[-1] == "]" else gt, high)


def check_bounds(owner: type, name: str, values):
    """`values`, a number or a float array, unless one lies outside the "bounds" of field `name` of
    dataclass `owner`: then ValueError naming the first such value (NaN lies outside)."""
    text, above_low, below_high = _bounds(owner, name)
    if isinstance(values, np.ndarray):
        outside = values[~(above_low(values) & below_high(values))].tolist()
    else:  # in plain Python, where an int beyond the float range compares exactly
        outside = [] if above_low(values) and below_high(values) else [values]
    if outside:
        raise ValueError(f"{name} must lie in {text}, got {outside[0]}")
    return values


class Outcome(enum.IntEnum):
    """Result of one analyzed photon pair."""

    INCONCLUSIVE = 0
    PSI_PLUS = 1
    PSI_MINUS = 2


class OutcomeProbs(NamedTuple):
    psi_plus: float
    psi_minus: float
    inconclusive: float


# the Outcome of each OutcomeProbs field, in order
_CLASSES = (Outcome.PSI_PLUS, Outcome.PSI_MINUS, Outcome.INCONCLUSIVE)


@dataclass(frozen=True)
class AnalyzerConfig:
    """Static parameters of the Bell analyzer.

    transmittance_h/v are intensity transmittances of the beamsplitter for the
    two linear polarizations (identical at both input ports); mode_overlap is
    the scalar indistinguishability of the two photons at the beamsplitter;
    geometric_phase applies the extra 180-degree phase to the horizontal
    component of input port 2.
    """

    transmittance_h: float = field(default=0.5, metadata={"bounds": "(0, 1)"})
    transmittance_v: float = field(default=0.5, metadata={"bounds": "(0, 1)"})
    mode_overlap: float = field(default=1.0, metadata={"bounds": "[0, 1]"})
    geometric_phase: bool = True
    detector_map: tuple[str, str, str, str] = DEFAULT_DETECTOR_MAP

    def __post_init__(self):
        check_fields(type(self), vars(self))
        if not isinstance(self.detector_map, (tuple, list)) or sorted(
            self.detector_map, key=str
        ) != sorted(DETECTORS):
            raise ValueError(
                f"detector_map must be a permutation of {DETECTORS}, got {self.detector_map!r}"
            )
        # a tuple keeps the config hashable; _stokes_terms caches on it
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
def _stokes_terms(config: AnalyzerConfig) -> tuple[tuple[tuple[float, float], ...], ...]:
    """The coefficient table of the Stokes form: one row per OutcomeProbs class, in its order, and per row
    one (K_dist, K_bos) pair per monomial in the fixed order (1, z_d, z_p, z_d z_p, E).

    A class probability sums (K_dist + M K_bos) m over the monomials m = 1,
    z_d, z_p, z_d z_p and E = x_d x_p + y_d y_p of the photons' unit Stokes
    vectors (z, x, y).  The photons reach mode k with intensities data_in[k]
    and program_in[k] (T or R = 1 - T of its polarization) and amplitudes
    whose product is w_k = U[k, pol] U[k, 2 + pol].  Pattern (k, l) adds its
    distinguishable probability |x_k|^2 |y_l|^2 + |x_l|^2 |y_k|^2 to K_dist
    (part 0) and its interference 2 Re(x_k y_l conj(x_l y_k)) to K_bos
    (part 1; for k = l, the pair's half-weighted sums).  As |H|^2 = (1 + z)/2
    and |V|^2 = (1 - z)/2, a product weight w of the data photon in a mode of
    polarization sign z_d and the program photon in one of sign z_p adds
    w/4 (1, z_d, z_p, z_d z_p) to the first four pairs; interference across
    the polarizations adds a quarter of its weight to E's K_bos, as
    Re(d_H conj(d_V) conj(p_H) p_V) = E/4.  Each coefficient is one math.fsum
    of its products, so one that cancels is exactly 0; stokes_outcome_probs
    skips an entry whose two coefficients are both 0, and floors the residue
    of a class that cancels only in the sum of its entries.
    """
    t = np.array([config.transmittance_h, config.transmittance_v])
    r = 1.0 - t
    pol, port_one = np.arange(4) % 2, np.arange(4) < 2
    data_in = np.where(port_one, t[pol], r[pol])
    program_in = np.where(port_one, r[pol], t[pol])
    g = -1.0 if config.geometric_phase else 1.0
    sign = np.array([g, 1.0, -g, -1.0])  # of w_k, see bs_transform
    split = t * r  # w_k^2 of a polarization; w_k w_l = sign_k sign_l sqrt(split_k split_l)
    z = (1.0, -1.0)  # of H and V
    # per class and monomial, the products its K_dist and K_bos coefficients sum
    products = [[([], []) for _ in range(5)] for _ in _CLASSES]
    for (k, l), c in zip(PATTERNS, pattern_outcomes(config)):
        z_k, z_l = z[pol[k]], z[pol[l]]
        row = products[_CLASSES.index(c)]
        if k == l:
            parts = [(part, data_in[k] * program_in[k], z_k, z_k) for part in (0, 1)]
        else:
            parts = [(0, data_in[k] * program_in[l], z_k, z_l), (0, data_in[l] * program_in[k], z_l, z_k)]
            mixing = 2.0 * sign[k] * sign[l] * np.sqrt(split[pol[k]] * split[pol[l]])
            if pol[k] == pol[l]:
                parts.append((1, mixing, z_k, z_k))
            else:
                row[4][1].append(mixing * 0.25)
        for part, w, z_d, z_p in parts:
            for m, factor in enumerate((1.0, z_d, z_p, z_d * z_p)):
                row[m][part].append(w * (0.25 * factor))
    return tuple(tuple((math.fsum(dist), math.fsum(bos)) for dist, bos in row) for row in products)


def _normalized(vectors: np.ndarray, width: int, what: str, dtype: type = complex) -> np.ndarray:
    """`vectors` as an (n, width) array of unit rows; ValueError otherwise.

    A real row is a Stokes vector, whose norm^2 is the square of its Jones
    vector's, so it may miss 1 by twice as much.
    """
    v = np.asarray(vectors, dtype=dtype)
    if v.ndim != 2 or v.shape[1] != width:
        raise ValueError(f"expected {what} of shape (n, {width}), got {v.shape}")
    norm_sq = np.einsum("ij,ij->i", v.conj() if dtype is complex else v, v).real
    tol = NORM_TOL if dtype is complex else 3.0 * NORM_TOL
    bad = np.flatnonzero(~(np.abs(norm_sq - 1.0) <= tol))
    if len(bad):
        raise ValueError(f"{what} are not normalized: row {bad[0]} has norm^2 {norm_sq[bad[0]]}")
    return v


def _overlap_column(mode_overlap, n: int) -> np.ndarray:
    """The mode overlaps as an (n, 1) or (1, 1) array, each in AnalyzerConfig.mode_overlap's bounds."""
    overlap = check_bounds(AnalyzerConfig, "mode_overlap", np.asarray(mode_overlap, dtype=float)).reshape(-1, 1)
    if len(overlap) not in (1, n):
        raise ValueError(f"expected 1 or {n} mode overlaps, got {len(overlap)}")
    return overlap


def _class_sums(pattern_probs: np.ndarray, config: AnalyzerConfig) -> np.ndarray:
    """Psi+/Psi-/inconclusive sums of pattern probabilities, shape (n, 3), column by column.

    Unlike a matrix product (BLAS gemv for one row, gemm for more), this gives
    a row the same sums in a batch of any size.
    """
    outcomes = np.array(pattern_outcomes(config))
    groups = [np.flatnonzero(outcomes == c) for c in _CLASSES]
    return np.stack([functools.reduce(np.add, (pattern_probs[:, i] for i in g)) for g in groups], 1)


def pattern_probs_batch(
    amplitudes: np.ndarray, config: AnalyzerConfig, mode_overlap: float | np.ndarray
) -> np.ndarray:
    """Output-pattern probabilities of a batch of two-photon states, shape (n, len(PATTERNS)).

    `amplitudes` holds n normalized states on the (HH, HV, VH, VV) basis, shape
    (n, 4), entangled or not.  The data photon enters in modes 0/1 and the
    program photon in modes 2/3, so the joint output amplitude is a = U psi U^T,
    where psi holds the state's 2x2 amplitude block in rows 0/1 and columns 2/3
    and U = bs_transform(config).  Bosonic photons add the amplitudes of the
    two orderings of an output pair, |a_kl + a_lk|^2; distinguishable photons
    add their probabilities, |a_kl|^2 + |a_lk|^2; partially distinguishable
    photons mix the two with weight mode_overlap, one value for the batch or
    one per state, shape (n,).  A photon pair in one mode (k = l) counts half
    of the symmetric sum.
    """
    amps = _normalized(amplitudes, 4, "two-photon states")
    u = bs_transform(config)
    a = u[:, :2] @ amps.reshape(-1, 2, 2) @ u[:, 2:].T
    a_kl, a_lk = a[:, _PATTERN_ROWS, _PATTERN_COLS], a[:, _PATTERN_COLS, _PATTERN_ROWS]
    overlap = _overlap_column(mode_overlap, len(a))
    bosonic = np.abs(a_kl + a_lk) ** 2
    distinguishable = np.abs(a_kl) ** 2 + np.abs(a_lk) ** 2
    return (overlap * bosonic + (1.0 - overlap) * distinguishable) * _PATTERN_WEIGHTS


def outcome_probs_batch(
    amplitudes: np.ndarray, config: AnalyzerConfig, mode_overlap: float | np.ndarray
) -> np.ndarray:
    """Psi+/Psi-/inconclusive probabilities of a batch of states, shape (n, 3).

    Columns follow OutcomeProbs; see pattern_probs_batch for the arguments.
    """
    return _class_sums(pattern_probs_batch(amplitudes, config, mode_overlap), config)


# class probabilities below a few ulps of 1 are rounding residue and count as 0: the
# terms of an unreachable class sum to a residue of either sign (within +-2e-16), and
# Generator.poisson takes a number from the stream for a residue mean but none for a
# zero one, so a residue would shift every later draw of a seeded ideal run
_PROB_FLOOR = 4 * np.finfo(float).eps


def stokes_outcome_probs(
    data: np.ndarray, program: np.ndarray, config: AnalyzerConfig, mode_overlap: float | np.ndarray
) -> np.ndarray:
    """Psi+/Psi-/inconclusive probabilities of n product states, shape (n, 3), from Stokes vectors.

    `data` and `program` hold the photons' unit Stokes vectors (z, x, y),
    shape (n, 3) each, as polarization.stokes_from_angles gives them, and
    mode_overlap is one value for the batch or one per state, shape (n,).
    The five monomials are formed once; class c is the sum, in the column
    order of its row of _stokes_terms, of (K_dist + M K_bos) m over the
    entries whose two coefficients are not both 0, in real arithmetic and
    elementwise, so a row does not depend on the batch size, and a value
    below _PROB_FLOOR is returned as exactly 0.  Equals outcome_probs_batch
    on the product amplitudes to rounding.
    """
    d = _normalized(data, 3, "data Stokes vectors", float)
    p = _normalized(program, 3, "program Stokes vectors", float)
    if len(d) != len(p):
        raise ValueError(f"got {len(d)} data and {len(p)} program Stokes vectors")
    overlap = _overlap_column(mode_overlap, len(d))[:, 0]
    # the monomials of _stokes_terms' columns, in its order
    monomials = (1.0, d[:, 0], p[:, 0], d[:, 0] * p[:, 0], d[:, 1] * p[:, 1] + d[:, 2] * p[:, 2])
    out = np.empty((len(d), 3))
    for c, row in enumerate(_stokes_terms(config)):
        total = 0.0
        for monomial, (dist, bos) in zip(monomials, row):
            if dist or bos:
                total = total + (dist + bos * overlap if bos else dist) * monomial
        out[:, c] = total
    return np.where(out < _PROB_FLOOR, 0.0, out)


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


def ideal_outcome_probs(state: TwoPhotonState, config: AnalyzerConfig) -> OutcomeProbs:
    """Outcome probabilities for perfectly overlapping photons.

    For a balanced beamsplitter with the geometric phase this equals the Bell
    projection probabilities (|c_Psi+|^2, |c_Psi-|^2, |c_Phi+|^2 + |c_Phi-|^2).
    """
    return OutcomeProbs(*map(float, outcome_probs_batch(state.amplitudes[None], config, 1.0)[0]))


def distinguishable_outcome_probs(state: TwoPhotonState, config: AnalyzerConfig) -> OutcomeProbs:
    """Outcome probabilities for temporally separated (non-interfering) photons."""
    return OutcomeProbs(*map(float, outcome_probs_batch(state.amplitudes[None], config, 0.0)[0]))


def bell_projection_probs(state: TwoPhotonState) -> OutcomeProbs:
    """Reference probabilities (Psi+, Psi-, rest) straight from the Bell decomposition."""
    from .twophoton import bell_probabilities

    p = bell_probabilities(state)
    return OutcomeProbs(p.psi_plus, p.psi_minus, p.phi_plus + p.phi_minus)
