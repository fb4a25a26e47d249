"""Programmable unambiguous state discrimination: theory curves and the sweep.

The device discriminates the two elliptical states selected by the program
qubit.  Success probability of the Bell-analysis strategy is
p = 2(|a|^2 - |a|^4) with |a|^2 = x^2 cos^2(theta) + y^2 sin^2(theta); the
optimal unambiguous strategy reaches 1 - |<phi+|phi->|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from . import polarization as pol
from .experiment import CountRecord, ExperimentConfig, estimate_records, measure_sweep


def success_prob_theory(epsilon_deg: float, theta_deg: float) -> float:
    """Bell-analysis success probability 2(|a|^2 - |a|^4) for the elliptical pair."""
    x, y = math.cos(math.radians(epsilon_deg)), math.sin(math.radians(epsilon_deg))
    a_sq = x**2 * math.cos(math.radians(theta_deg)) ** 2 + y**2 * math.sin(math.radians(theta_deg)) ** 2
    return 2.0 * (a_sq - a_sq**2)


def optimal_prob(epsilon_deg: float, theta_deg: float) -> float:
    """Optimal unambiguous discrimination probability 1 - |<phi+|phi->|.

    Uses the general complex overlap, so elliptical states are handled
    uniformly; for real amplitudes this reduces to 1 - |2|a|^2 - 1|.
    """
    plus = pol.prepare_elliptical(epsilon_deg, theta_deg, +1)
    minus = pol.prepare_elliptical(epsilon_deg, theta_deg, -1)
    return 1.0 - abs(pol.overlap(plus, minus))


@dataclass(frozen=True)
class DiscriminationPoint:
    """One sweep point: theory, optimal benchmark and simulated estimates.

    The sweep-grid coordinates, which `analyze` carries over, carry "grid" metadata.
    """

    epsilon: float = field(metadata={"grid": True})
    theta: float = field(metadata={"grid": True})
    p_theory: float
    p_optimal: float
    p_estimated: float
    p_stderr: float
    error_rate: float
    error_rate_stderr: float
    counts: CountRecord


def run_discriminator_sweep(
    epsilons: Sequence[float],
    thetas: Sequence[float],
    config: ExperimentConfig,
    pairs_per_point: float = 100_000.0,
    seed: int | None = None,
) -> list[DiscriminationPoint]:
    """Simulate the discriminator over a grid of ellipticities and axis angles.

    The data photon is prepared alternately in the plus and minus elliptical
    state while the program photon always carries the plus state.  Each grid
    point gets an independent random stream derived from the master seed (see
    experiment.measure_sweep).  Estimator failures (for example no conclusive
    events at a point) are recorded as NaN instead of aborting the sweep.
    """
    grid = [(float(eps), float(theta)) for eps in epsilons for theta in thetas]
    settings = [
        tuple(pol.recipe_discriminator(eps, theta, sign) for sign in (+1, -1, +1))
        for eps, theta in grid
    ]
    records = measure_sweep(settings, config, pairs_per_point, seed)
    return [
        DiscriminationPoint(
            epsilon=eps,
            theta=theta,
            p_theory=success_prob_theory(eps, theta),
            p_optimal=optimal_prob(eps, theta),
            p_estimated=est.p_succ,
            p_stderr=est.p_succ_stderr,
            error_rate=est.error_rate,
            error_rate_stderr=est.error_rate_stderr,
            counts=counts,
        )
        for (eps, theta), counts, est in zip(grid, records, estimate_records(records))
    ]
