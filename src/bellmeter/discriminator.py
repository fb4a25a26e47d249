"""Programmable unambiguous state discrimination: theory curves and the sweep.

The device discriminates the two elliptical states selected by the program
qubit.  Success probability of the Bell-analysis strategy is
p = 2(|a|^2 - |a|^4) with |a|^2 = x^2 cos^2(theta) + y^2 sin^2(theta); the
optimal unambiguous strategy reaches 1 - |<phi+|phi->|.

The sweep is columnar and runs block by block (discriminator_blocks); its
two theory columns are the functions below evaluated over a block's arrays.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from . import polarization as pol
from .counts import DiscriminationPoint, Estimates, estimate_table, sweep_columns, sweep_points
from .experiment import ExperimentConfig, sweep_blocks, with_pairs_per_point


def success_prob_theory(epsilon_deg, theta_deg) -> float | np.ndarray:
    """Bell-analysis success probability 2(|a|^2 - |a|^4) of the elliptical pair, elementwise."""
    x, y = np.cos(np.radians(epsilon_deg)), np.sin(np.radians(epsilon_deg))
    c, s = np.cos(np.radians(theta_deg)), np.sin(np.radians(theta_deg))
    # x * x, not x**2: numpy squares an array but calls pow on a scalar, which can differ by an ulp
    a_sq = (x * x) * (c * c) + (y * y) * (s * s)
    return 2.0 * (a_sq - a_sq * a_sq)


def optimal_prob(epsilon_deg, theta_deg) -> float | np.ndarray:
    """Optimal unambiguous discrimination probability 1 - |<phi+|phi->|, elementwise.

    With a + ib and c + id the H and V amplitudes of pol.prepare_elliptical,
    the overlap is (a^2 + b^2) - (c^2 + d^2), computed term by term as the
    complex product computes it, so this equals 1 - |pol.overlap(plus, minus)|
    bit for bit.  For real amplitudes it reduces to 1 - |2|a|^2 - 1|.
    """
    x, y = np.cos(np.radians(epsilon_deg)), np.sin(np.radians(epsilon_deg))
    th = np.radians(theta_deg)
    a, b, c, d = x * np.cos(th), y * np.sin(th), x * np.sin(th), y * np.cos(th)
    return 1.0 - np.abs((a * a + b * b) - (c * c + d * d))


def discriminator_blocks(
    epsilons: Sequence[float], thetas: Sequence[float], config: ExperimentConfig
) -> Iterator[list[np.ndarray]]:
    """The discriminator over a grid of ellipticities and axis angles, theta fastest, block by block.

    Each block holds the sweep_header(DiscriminationPoint) columns of one
    block of points of experiment.sweep_blocks: its grid coordinates, plate
    angles, counts, estimates and theory columns are made for that block
    alone.  The data photon is prepared alternately in the plus and minus
    elliptical state while the program photon always carries the plus
    state.  The counts are drawn stage by stage from streams of the master
    seed, in grid order, at config.pair_rate (see experiment.sweep_blocks).
    Estimator failures (for example no conclusive events at a point) are
    recorded as NaN instead of aborting the sweep.
    """
    for (eps, theta), counts in sweep_blocks((epsilons, thetas), pol.discriminator_angles, config):
        est = dict(zip(Estimates._fields, estimate_table(counts).T))
        yield sweep_columns(
            DiscriminationPoint, counts, epsilon=eps, theta=theta,
            p_theory=success_prob_theory(eps, theta), p_optimal=optimal_prob(eps, theta),
            p_estimated=est["p_succ"], p_stderr=est["p_succ_stderr"],
            error_rate=est["error_rate"], error_rate_stderr=est["error_rate_stderr"],
        )


def run_discriminator_sweep(
    epsilons: Sequence[float], thetas: Sequence[float], config: ExperimentConfig,
    pairs_per_point: float = 100_000.0,
) -> list[DiscriminationPoint]:
    """The discriminator_blocks sweep at pairs_per_point pairs per input setting, as points."""
    point_cfg = with_pairs_per_point(config, pairs_per_point)
    return sweep_points(DiscriminationPoint, discriminator_blocks(epsilons, thetas, point_cfg))
