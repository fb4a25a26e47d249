"""Programmable unambiguous state discrimination: theory curves and the sweep.

The device discriminates the two elliptical states selected by the program
qubit.  Success probability of the Bell-analysis strategy is
p = 2(|a|^2 - |a|^4) with |a|^2 = x^2 cos^2(theta) + y^2 sin^2(theta); the
optimal unambiguous strategy reaches 1 - |<phi+|phi->|.

The sweep is columnar (discriminator_columns); only its two theory columns
are evaluated point by point, by the scalar functions, so they stay bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import polarization as pol
from .experiment import CountRecord, Estimates, ExperimentConfig, estimate_table, measure_sweep
from .experiment import sweep_columns, sweep_points


def success_prob_theory(epsilon_deg: float, theta_deg: float) -> float:
    """Bell-analysis success probability 2(|a|^2 - |a|^4) for the elliptical pair."""
    x, y = math.cos(math.radians(epsilon_deg)), math.sin(math.radians(epsilon_deg))
    a_sq = x**2 * math.cos(math.radians(theta_deg)) ** 2 + y**2 * math.sin(math.radians(theta_deg)) ** 2
    return 2.0 * (a_sq - a_sq**2)


def optimal_prob(epsilon_deg: float, theta_deg: float) -> float:
    """Optimal unambiguous discrimination probability 1 - |<phi+|phi->|.

    With a + ib and c + id the H and V amplitudes of pol.prepare_elliptical,
    the overlap is (a^2 + b^2) - (c^2 + d^2), computed term by term as the
    complex product computes it, so this equals 1 - |pol.overlap(plus, minus)|
    bit for bit.  For real amplitudes it reduces to 1 - |2|a|^2 - 1|.
    """
    x, y = math.cos(math.radians(epsilon_deg)), math.sin(math.radians(epsilon_deg))
    th = math.radians(theta_deg)
    a, b, c, d = x * math.cos(th), y * math.sin(th), x * math.sin(th), y * math.cos(th)
    return 1.0 - abs((a * a + b * b) - (c * c + d * d))


@dataclass(frozen=True)
class DiscriminationPoint:
    """One sweep point: theory, optimal benchmark and simulated estimates.

    The fields before `counts` name the sweep's leading dataset columns
    (experiment.sweep_columns); the grid coordinates, which `analyze` carries
    over, carry "grid" metadata.
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


def discriminator_columns(
    epsilons: Sequence[float], thetas: Sequence[float], config: ExperimentConfig, pairs_per_point: float
) -> dict[str, np.ndarray]:
    """Dataset columns of the discriminator over a grid of ellipticities and axis angles, theta fastest.

    The data photon is prepared alternately in the plus and minus elliptical
    state while the program photon always carries the plus state.  The
    counts are drawn stage by stage from streams of the master seed, in grid
    order (see experiment.measure_sweep).  Estimator failures (for example no
    conclusive events at a point) are recorded as NaN instead of aborting the
    sweep.
    """
    eps = np.repeat(np.asarray(epsilons, dtype=float), len(thetas))
    theta = np.tile(np.asarray(thetas, dtype=float), len(epsilons))
    counts = measure_sweep(pol.discriminator_angles(eps, theta), config, pairs_per_point)
    est = dict(zip(Estimates._fields, estimate_table(counts).T))
    grid = list(zip(eps.tolist(), theta.tolist()))
    return sweep_columns(
        DiscriminationPoint, counts, epsilon=eps, theta=theta,
        p_theory=np.array([success_prob_theory(*point) for point in grid]),
        p_optimal=np.array([optimal_prob(*point) for point in grid]),
        p_estimated=est["p_succ"], p_stderr=est["p_succ_stderr"],
        error_rate=est["error_rate"], error_rate_stderr=est["error_rate_stderr"],
    )


def run_discriminator_sweep(
    epsilons: Sequence[float], thetas: Sequence[float], config: ExperimentConfig,
    pairs_per_point: float = 100_000.0,
) -> list[DiscriminationPoint]:
    """The discriminator_columns sweep as one point per grid point."""
    return sweep_points(DiscriminationPoint, discriminator_columns(epsilons, thetas, config, pairs_per_point))
