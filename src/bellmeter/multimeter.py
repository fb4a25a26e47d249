"""Phase-covariant quantum multimeter: POVM family, trade-off, reinterpretation, sweep.

The program qubit selects an equatorial measurement basis
(|H> +/- e^{i phi}|V>)/sqrt(2).  The one-parameter POVM family interpolates
between the unambiguous partial Bell measurement (eta = 1, inconclusive rate
1/2, fidelity 1) and an error-prone von Neumann-like measurement (eta = 0,
no inconclusive results, fidelity 3/4).

The sweep is columnar and runs block by block (multimeter_blocks); its theory
columns are constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import polarization as pol
from .analyzer import Outcome
from .counts import Estimates, MultimeterPoint, estimate_table, sweep_columns, sweep_points
from .experiment import ExperimentConfig, check_eta, sweep_blocks, with_pairs_per_point

_HERMITIAN_TOL = 1e-12
_EQUATOR_TOL = 1e-9


@dataclass(frozen=True)
class PovmElement:
    """Hermitian positive semidefinite effect on the two-photon space."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > _HERMITIAN_TOL:
            raise ValueError("POVM element is not Hermitian")
        if np.min(np.linalg.eigvalsh(m)) < -_HERMITIAN_TOL:
            raise ValueError("POVM element is not positive semidefinite")
        object.__setattr__(self, "matrix", m)


def povm_elements(eta: float) -> tuple[PovmElement, PovmElement, PovmElement]:
    """The two-photon POVM (Pi+, Pi-, Pi?) of the multimeter.

    Pi+/- = |Psi+/-><Psi+/-| + (1-eta)/2 (|Phi+><Phi+| + |Phi-><Phi-|),
    Pi?   = eta (|Phi+><Phi+| + |Phi-><Phi-|).
    """
    from .twophoton import BELL_STATES

    check_eta(eta)
    phi_p, phi_m, psi_p, psi_m = (np.outer(b, b.conj()) for b in BELL_STATES)
    phi_part = phi_p + phi_m
    return (
        PovmElement(psi_p + 0.5 * (1.0 - eta) * phi_part),
        PovmElement(psi_m + 0.5 * (1.0 - eta) * phi_part),
        PovmElement(eta * phi_part),
    )


def theory_PI(eta: float) -> float:
    """Inconclusive probability eta/2, independent of the selected basis phi."""
    return eta / 2.0


def fidelity_from_PI(p_inconclusive: float) -> float:
    """Mean fidelity F = (3 - 2 P_I) / (4 (1 - P_I)) of the conclusive outcomes."""
    if not 0.0 <= p_inconclusive < 1.0:
        raise ValueError(f"P_I must lie in [0, 1), got {p_inconclusive}")
    return (3.0 - 2.0 * p_inconclusive) / (4.0 * (1.0 - p_inconclusive))


def effective_povm(
    program: pol.PolarizationState, eta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """POVM induced on the data qubit by fixing the program state.

    Contracts each two-photon element with the program state.  Only equatorial
    programs are accepted; for those the result takes the closed form
    pi+/- = (1 - P_I)[F |psi+/-><psi+/-| + (1 - F)|psi-/+><psi-/+|] and
    pi? = P_I * identity, with P_I = eta/2.
    """
    if abs(abs(program.h) - abs(program.v)) > _EQUATOR_TOL:
        raise ValueError("program state must lie on the Bloch-sphere equator (|h| == |v|)")
    chi = program.vector
    elements = povm_elements(eta)
    reduced = []
    for element in elements:
        big = element.matrix.reshape(2, 2, 2, 2)  # (d1, p1, d2, p2)
        small = np.einsum("abcd,d,b->ac", big, chi, chi.conj())
        reduced.append(small)
    return tuple(reduced)


def reinterpret(
    outcomes: Sequence[int] | np.ndarray, eta: float, rng: np.random.Generator
) -> np.ndarray:
    """Relax an unambiguous outcome stream to the eta < 1 measurement.

    Each inconclusive outcome is kept with probability eta and otherwise
    relabeled Psi+ or Psi- with probability 1/2 each; conclusive outcomes pass
    through unchanged.
    """
    check_eta(eta)
    out = np.asarray(outcomes, dtype=np.int64).copy()
    inconclusive = out == int(Outcome.INCONCLUSIVE)
    relabel = inconclusive & (rng.random(out.shape) >= eta)
    coin = rng.random(out.shape) < 0.5
    out[relabel & coin] = int(Outcome.PSI_PLUS)
    out[relabel & ~coin] = int(Outcome.PSI_MINUS)
    return out


def multimeter_blocks(
    phis: Sequence[float], eta: float, config: ExperimentConfig
) -> Iterator[list[np.ndarray]]:
    """The multimeter over a grid of basis phases, block by block.

    Each block holds the sweep_header(MultimeterPoint) columns of one block
    of points of experiment.sweep_blocks.  Per phi the data photon is
    prepared alternately in the two basis states psi+(phi) and psi-(phi)
    while the program photon carries psi+(phi).  Only the unambiguous
    analyzer is physically simulated; eta < 1 is produced by relabeling
    inconclusive outcomes, so the shoulder normalization stays that of the
    raw measurement.  The fidelity estimate is 1 - the wrong-class rate of
    the conclusive events, and the counts are drawn at config.pair_rate.
    Estimates the counts leave undefined are NaN.  An eta outside the bounds
    of MultimeterPoint.eta raises ValueError on the call.
    """
    check_eta(eta)
    pi_theory = theory_PI(eta)
    fidelity_theory = fidelity_from_PI(pi_theory)

    def columns(phi: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
        est = dict(zip(Estimates._fields, estimate_table(counts).T))
        return sweep_columns(
            MultimeterPoint, counts, phi=phi, eta=np.full(len(phi), float(eta)),
            pi_theory=np.full(len(phi), pi_theory),
            fidelity_theory=np.full(len(phi), fidelity_theory),
            p_inconclusive=est["p_inconclusive"], pi_stderr=est["pi_stderr"],
            fidelity=1.0 - est["error_rate"],
            error_rate=est["error_rate"], error_rate_stderr=est["error_rate_stderr"],
        )

    blocks = sweep_blocks((phis,), pol.multimeter_angles, config, eta)
    return (columns(phi, counts) for (phi,), counts in blocks)


def run_multimeter_sweep(
    phis: Sequence[float], eta: float, config: ExperimentConfig, pairs_per_point: float = 100_000.0
) -> list[MultimeterPoint]:
    """The multimeter_blocks sweep at pairs_per_point pairs per input setting, as points."""
    point_cfg = with_pairs_per_point(config, pairs_per_point)
    return sweep_points(MultimeterPoint, multimeter_blocks(phis, eta, point_cfg))
