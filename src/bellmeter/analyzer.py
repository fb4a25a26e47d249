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
is a bilinear form s_d^T (K_dist + M K_bos) s_p in the photons' Stokes
4-vectors s = (1, z, x, y), whose 4x4 tables are built once per config
(_stokes_tables).  With the default wiring

    p+- = A+-(1 - z_d z_p) +- M B (x_d x_p + y_d y_p),    p? = (1 + z_d z_p) / 2,

with A+ = (T_h T_v + R_h R_v) / 2, A- = (T_h R_v + R_h T_v) / 2 and
B = sqrt(T_h R_h T_v R_v) (all 1/4 for a 50:50 splitter); the equatorial
term is the phase covariance the multimeter relies on.  The general path
stays as the oracle of the shortcut.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import NamedTuple, Sequence

import numpy as np

from .polarization import stokes_vectors
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


def check_field_types(instance) -> None:
    """ValueError unless each "float" field of a dataclass is a finite number and each "int"
    field an integer; a bool is neither (the types are the strings of postponed annotations)."""
    for f in fields(instance):
        value = getattr(instance, f.name)
        if f.type == "float" and (
            not isinstance(value, Real) or isinstance(value, bool) or not math.isfinite(value)
        ):
            raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if f.type == "int" and (not isinstance(value, Integral) or isinstance(value, bool)):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")


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
        check_field_types(self)
        for name in ("transmittance_h", "transmittance_v"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"beamsplitter {name} must lie in (0, 1), got {value!r}")
        if not 0.0 <= self.mode_overlap <= 1.0:
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
def _config_tables(config: AnalyzerConfig) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """bs_transform and the PATTERNS indices of each OutcomeProbs class, built once per config.

    The arrays are shared between callers and therefore read-only.
    """
    u = bs_transform(config)
    outcomes = np.array(pattern_outcomes(config))
    classes = (Outcome.PSI_PLUS, Outcome.PSI_MINUS, Outcome.INCONCLUSIVE)
    groups = tuple(np.flatnonzero(outcomes == c) for c in classes)
    for array in (u, *groups):
        array.setflags(write=False)
    return u, groups


@functools.lru_cache(maxsize=64)
def _stokes_tables(config: AnalyzerConfig) -> tuple[np.ndarray, np.ndarray]:
    """K_dist, K_bos, shape (3, 4, 4) each: p_c = s_d^T (K_dist[c] + M K_bos[c]) s_p per class.

    s = (1, z, x, y) is a photon's Stokes 4-vector, so |H|^2 = (1 + z)/2,
    |V|^2 = (1 - z)/2 and Re(d_H conj(d_V) conj(p_H) p_V) = (x_d x_p + y_d y_p)/4.
    The photons reach mode k with intensities data_in[k] and program_in[k]
    (T or R = 1 - T of its polarization) and with amplitudes whose product is
    w_k = U[k, pol] U[k, 2 + pol].  Pattern (k, l) adds its distinguishable
    probability |x_k|^2 |y_l|^2 + |x_l|^2 |y_k|^2 to K_dist and its interference
    2 Re(x_k y_l conj(x_l y_k)) to K_bos (for k = l, the pair's half-weighted
    sums).  Each entry is one math.fsum of its exact-weighted terms, so a
    coefficient that cancels is exactly 0.  Classes follow OutcomeProbs; the
    arrays are shared and therefore read-only.
    """
    t = np.array([config.transmittance_h, config.transmittance_v])
    r = 1.0 - t
    pol, port_one = np.arange(4) % 2, np.arange(4) < 2
    data_in = np.where(port_one, t[pol], r[pol])
    program_in = np.where(port_one, r[pol], t[pol])
    g = -1.0 if config.geometric_phase else 1.0
    sign = np.array([g, 1.0, -g, -1.0])  # of w_k, see bs_transform
    split = t * r  # w_k^2 of a polarization; w_k w_l = sign_k sign_l sqrt(split_k split_l)
    stokes_rows = np.array([[0.5, 0.5, 0.0, 0.0], [0.5, -0.5, 0.0, 0.0]])  # |H|^2, |V|^2
    equatorial = np.diag([0.0, 0.0, 0.25, 0.25])
    classes = (Outcome.PSI_PLUS, Outcome.PSI_MINUS, Outcome.INCONCLUSIVE)
    dist_terms, bos_terms = [], []  # (class, 4x4 term) per pattern
    for (k, l), outcome in zip(PATTERNS, pattern_outcomes(config)):
        c, e_k, e_l = classes.index(outcome), stokes_rows[pol[k]], stokes_rows[pol[l]]
        if k == l:
            same = data_in[k] * program_in[k] * np.outer(e_k, e_k)
            dist_terms.append((c, same))
            bos_terms.append((c, same))
            continue
        dist_terms.append((c, data_in[k] * program_in[l] * np.outer(e_k, e_l)))
        dist_terms.append((c, data_in[l] * program_in[k] * np.outer(e_l, e_k)))
        mixing = np.outer(e_k, e_k) if pol[k] == pol[l] else equatorial
        bos_terms.append((c, 2.0 * sign[k] * sign[l] * np.sqrt(split[pol[k]] * split[pol[l]]) * mixing))
    tables = []
    for terms in (dist_terms, bos_terms):
        stack = np.zeros((3, 4, 4, len(terms)))
        for i, (c, term) in enumerate(terms):
            stack[c, :, :, i] = term
        table = np.vectorize(math.fsum, signature="(n)->()")(stack)
        table.setflags(write=False)
        tables.append(table)
    return tables[0], tables[1]


# the entries of a class table (see _stokes_tables) and the monomial of the
# two Stokes vectors each one weights; E = x_d x_p + y_d y_p weights (2, 2) and
# (3, 3) alike, and every other entry is 0
_MONOMIAL_ENTRIES = {"1": (0, 0), "z_d": (1, 0), "z_p": (0, 1), "zz": (1, 1), "E": (2, 2)}


@functools.lru_cache(maxsize=64)
def _stokes_terms(config: AnalyzerConfig) -> tuple[tuple[tuple[str, float, float], ...], ...]:
    """Per OutcomeProbs class, its nonzero (monomial, K_dist, K_bos) coefficient terms.

    A class whose constant and z_d z_p coefficients cancel (the Psi classes
    of the default wiring) is written in difference form, using
    1 - z_d z_p = Q- + E = Q+ - E for unit Stokes vectors, with
    Q- = |n_d - n_p|^2 / 2 and Q+ = |n_d - n_p * _PARTNER|^2 / 2, the halved
    squared distances of the data state from the program state and from its
    negated-angle partner, taking the one whose E coefficient then cancels at
    M = 1.  A state equal
    to the program, or to its negated-angle partner, then gives exactly 0 in
    the class it cannot reach, not a rounding residue.
    """
    classes = []
    for dist, bos in zip(*_stokes_tables(config)):
        coef = {name: (float(dist[e]), float(bos[e])) for name, e in _MONOMIAL_ENTRIES.items()}
        terms = []
        (c_d, c_b), (e_d, e_b) = coef["1"], coef["E"]
        if (c_d, c_b) != (0.0, 0.0) and coef["zz"] == (-c_d, -c_b):
            del coef["1"], coef["zz"]
            side = 1.0 if e_d + e_b > 0.0 else -1.0  # Q+ or Q-
            terms.append(("Q+" if side > 0 else "Q-", c_d, c_b))
            coef["E"] = (e_d - side * c_d, e_b - side * c_b)
        terms += [(name, d, b) for name, (d, b) in coef.items() if (d, b) != (0.0, 0.0)]
        classes.append(tuple(terms))
    return tuple(classes)


def _normalized(vectors: np.ndarray, width: int, what: str, dtype: type = complex) -> np.ndarray:
    """`vectors` as an (n, width) array of unit rows; ValueError otherwise.

    A real row is a Stokes vector, whose norm^2 is the square of its Jones
    vector's, so it may miss 1 by twice as much.
    """
    v = np.asarray(vectors, dtype=dtype)
    if v.ndim != 2 or v.shape[1] != width:
        raise ValueError(f"expected {what} of shape (n, {width}), got {v.shape}")
    norm_sq = np.einsum("ij,ij->i", v.conj(), v).real
    if not np.all(np.abs(norm_sq - 1.0) <= (_NORM_TOL if dtype is complex else 3.0 * _NORM_TOL)):
        raise ValueError(f"{what} are not normalized: {norm_sq}")
    return v


def _overlap_column(mode_overlap, n: int) -> np.ndarray:
    """The mode overlaps as an (n, 1) or (1, 1) array in [0, 1]; ValueError otherwise."""
    overlap = np.asarray(mode_overlap, dtype=float).reshape(-1, 1)
    if not np.all((0.0 <= overlap) & (overlap <= 1.0)):
        raise ValueError(f"mode overlap must lie in [0, 1], got {mode_overlap}")
    if len(overlap) not in (1, n):
        raise ValueError(f"expected 1 or {n} mode overlaps, got {len(overlap)}")
    return overlap


def _class_sums(pattern_probs: np.ndarray, config: AnalyzerConfig) -> np.ndarray:
    """Psi+/Psi-/inconclusive sums of pattern probabilities, shape (n, 3), column by column.

    Unlike a matrix product (BLAS gemv for one row, gemm for more), this gives
    a row the same sums in a batch of any size.
    """
    groups = _config_tables(config)[1]
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
    u, _ = _config_tables(config)
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


# a Stokes vector times this is that of the state whose plate angles are negated
_PARTNER = np.array([1.0, -1.0, -1.0])

# the monomials of _stokes_terms, from the unit Stokes vectors (z, x, y) of the two photons
_MONOMIALS = {
    "1": lambda d, p: 1.0,
    "z_d": lambda d, p: d[:, 0],
    "z_p": lambda d, p: p[:, 0],
    "zz": lambda d, p: d[:, 0] * p[:, 0],
    "E": lambda d, p: d[:, 1] * p[:, 1] + d[:, 2] * p[:, 2],
    "Q-": lambda d, p: _half_distance_sq(d, p),
    "Q+": lambda d, p: _half_distance_sq(d, _PARTNER * p),
}


def _half_distance_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b|^2 / 2 per row of two (n, 3) arrays, column by column (a reduction is slower)."""
    return 0.5 * ((a[:, 0] - b[:, 0]) ** 2 + (a[:, 1] - b[:, 1]) ** 2 + (a[:, 2] - b[:, 2]) ** 2)


def stokes_outcome_probs(
    data: np.ndarray, program: np.ndarray, config: AnalyzerConfig, mode_overlap: float | np.ndarray
) -> np.ndarray:
    """Psi+/Psi-/inconclusive probabilities of n product states, shape (n, 3), from Stokes vectors.

    `data` and `program` hold the photons' unit Stokes vectors (z, x, y),
    shape (n, 3) each, as polarization.stokes_from_angles gives them, and
    mode_overlap is one value for the batch or one per state, shape (n,).
    Class c is s_d^T (K_dist[c] + M K_bos[c]) s_p (see _stokes_tables),
    evaluated as the sum of its few _stokes_terms in real arithmetic,
    elementwise, so a row does not depend on the batch size.  Equals
    outcome_probs_batch on the product amplitudes to rounding.
    """
    d = _normalized(data, 3, "data Stokes vectors", float)
    p = _normalized(program, 3, "program Stokes vectors", float)
    if len(d) != len(p):
        raise ValueError(f"got {len(d)} data and {len(p)} program Stokes vectors")
    overlap = _overlap_column(mode_overlap, len(d))[:, 0]
    terms = _stokes_terms(config)
    values = {name: _MONOMIALS[name](d, p) for name in {term[0] for group in terms for term in group}}
    out = np.empty((len(d), 3))
    for c, group in enumerate(terms):
        total = 0.0
        for name, dist, bos in group:
            total = total + (dist + bos * overlap if bos else dist) * values[name]
        out[:, c] = total
    return out


def product_outcome_probs(
    data: np.ndarray, program: np.ndarray, config: AnalyzerConfig, mode_overlap: float | np.ndarray
) -> np.ndarray:
    """Psi+/Psi-/inconclusive probabilities of n product states, shape (n, 3), from Jones vectors.

    `data` and `program` hold the photons' Jones vectors, shape (n, 2) each;
    their Stokes vectors go through stokes_outcome_probs.
    """
    d = _normalized(data, 2, "data Jones vectors")
    p = _normalized(program, 2, "program Jones vectors")
    return stokes_outcome_probs(stokes_vectors(d), stokes_vectors(p), config, mode_overlap)


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
    return OutcomeProbs(*(float(p) for p in _class_sums(probs[None], config)[0]))


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
