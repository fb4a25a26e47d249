"""Monte Carlo emulator of the photon-counting experiment.

Simulates pair generation, wave-plate state preparation with angle jitter,
the partially distinguishable Bell analyzer, detector inefficiency, dark-count
accidentals, shoulder (normalization) measurements and the mirror scan through
the Hong-Ou-Mandel dip.

Sampling uses Poisson thinning and is exact in distribution.  The number of
pairs in a measurement period is Poisson; wave plates are set once per period,
so all its pairs share one outcome distribution.  Splitting a Poisson count
over outcome classes, relabelling a random fraction of one class and keeping
each coincidence with the detection probability all leave independent Poisson
counts per class, and sums of independent Poisson counts are Poisson.  The
recorded Psi+ and Psi- counts of an input setting are therefore two Poisson
draws whose means add up the class probabilities of all its periods.

A sweep runs as four stages, one per input setting (main plus, main minus,
shoulder plus, shoulder minus), and each stage has two random streams of its
own, spawned from config.seed: stage s takes its plate jitter from stream 2s
and its counts from stream 2s + 1.  The points run in blocks of at most 4096
analyzed periods per stage (R per point with angle_jitter > 0, else 1).  In
a block each stage first draws the jitter of its periods, R x 2 x 2 uniforms
per point in one array draw (only when angle_jitter > 0); the periods of all
stages then go from plate angles to Stokes vectors to class probabilities in
one real-arithmetic pass (polarization.stokes_from_angles,
analyzer.stokes_outcome_probs; without jitter all periods of a point carry
one state, so each point is analyzed as one period that counts R times);
last, one Poisson draw per stage gives every point its (Psi+, Psi-) pair.
Both streams of a stage are consumed in point order, so the block size
changes no draw, and the first k rows of a sweep equal the sweep of its
first k points.  The mirror scan through the dip runs the same way, as two
stages (the +45 and -45 degree data inputs) over its positions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import polarization as pol
from .analyzer import AnalyzerConfig, check_field_types, stokes_outcome_probs
from .errors import SchemaViolationError

# tolerance on the sum of each period's class probabilities
_PROB_SUM_TOL = 1e-9

# class probabilities below a few ulps of 1 are rounding residue and count as 0
_PROB_FLOOR = 4 * np.finfo(float).eps

# bound on the worst-case Poisson mean of an input setting; numpy's
# Generator.poisson rejects means above about 9.2e18
_MAX_POISSON_MEAN = 1e18

# a sweep is measured in blocks of points with at most this many analyzed
# periods per input setting, so the working arrays of a block (about 0.3 kB
# per period and stage) stay a few MB however many points the sweep has
_MAX_STAGE_PERIODS = 4096

# a block holds at least one point, and each of its R periods is analyzed on
# its own when angle_jitter > 0, so a jittered config may have no more
# repetitions than fit a block; without jitter a point is one analyzed period
_MAX_JITTERED_REPETITIONS = _MAX_STAGE_PERIODS

# plate angles (input, photon, plate) of the shoulder and mirror-scan inputs: the
# plus and minus inputs of epsilon 0, theta 45 are the (45, 45) and (-45, 45) ones
_DIAGONAL = pol.discriminator_angles(0.0, 45.0)[[[0, 2], [1, 2]]]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_FIT_GRID = 64  # log-spaced dip widths the visibility fit tries before its golden-section search


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of the emulated experiment.

    pair_rate is in photon pairs per second, dark_count_rate in counts per
    second per detector, dip_sigma and shoulder_position in micrometers of
    mirror displacement, angle_jitter in degrees (uniform, resampled per
    measurement period for every wave plate).
    """

    pair_rate: float = 100_000.0
    period: float = 1.0
    repetitions: int = 10
    detector_efficiency: float = 0.5
    dark_count_rate: float = 100.0
    coincidence_window: float = 10e-9
    dip_sigma: float = 35.0
    shoulder_position: float = 150.0
    angle_jitter: float = 1.0
    seed: int = 12345
    analyzer: AnalyzerConfig = field(default_factory=AnalyzerConfig)

    def __post_init__(self):
        check_field_types(self)
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.pair_rate < 0 or self.period <= 0 or self.repetitions < 1:
            raise ValueError("pair_rate must be >= 0, period > 0, repetitions >= 1")
        if not 0.0 <= self.detector_efficiency <= 1.0:
            raise ValueError(f"detector_efficiency must lie in [0, 1], got {self.detector_efficiency}")
        if self.dark_count_rate < 0 or self.coincidence_window < 0:
            raise ValueError("dark_count_rate and coincidence_window must be >= 0")
        if self.dip_sigma <= 0:
            raise ValueError(f"dip_sigma must be > 0, got {self.dip_sigma}")
        if self.angle_jitter < 0:
            raise ValueError(f"angle_jitter must be >= 0, got {self.angle_jitter}")
        try:
            worst_mean = self.pair_rate * self.period * self.repetitions + (
                2.0 * self.dark_count_rate * self.dark_count_rate * self.coincidence_window
                * self.period * self.repetitions
            )
        except OverflowError:  # a repetitions integer beyond the float range
            worst_mean = math.inf
        if not worst_mean < _MAX_POISSON_MEAN:
            raise ValueError(
                "pair_rate * period * repetitions + 2 * dark_count_rate^2 * coincidence_window"
                f" * period * repetitions must stay below {_MAX_POISSON_MEAN:g}, got {worst_mean:g}"
            )
        if self.angle_jitter > 0 and self.repetitions > _MAX_JITTERED_REPETITIONS:
            raise ValueError(
                f"repetitions must be at most {_MAX_JITTERED_REPETITIONS} when angle_jitter > 0,"
                f" got {self.repetitions}"
            )

    @staticmethod
    def ideal(pair_rate: float = 100_000.0, seed: int = 12345) -> "ExperimentConfig":
        """Lossless, noiseless, perfectly aligned reference configuration."""
        return ExperimentConfig(pair_rate=pair_rate, seed=seed).idealized()

    @staticmethod
    def realistic(pair_rate: float = 100_000.0, seed: int = 12345) -> "ExperimentConfig":
        """Imperfection budget on the scale of the real apparatus.

        92% mode overlap, a few percent of splitting imbalance, 50% detector
        efficiency, 100/s dark counts and +/-1 degree wave-plate jitter.
        """
        return ExperimentConfig(
            pair_rate=pair_rate,
            seed=seed,
            analyzer=AnalyzerConfig(
                transmittance_h=0.53, transmittance_v=0.48, mode_overlap=0.92
            ),
        )

    def idealized(self) -> "ExperimentConfig":
        """Copy of this config with every imperfection switched off."""
        return replace(
            self,
            detector_efficiency=1.0,
            dark_count_rate=0.0,
            angle_jitter=0.0,
            analyzer=AnalyzerConfig(detector_map=self.analyzer.detector_map),
        )


class ClassCounts(NamedTuple):
    """Coincidence counts of the two conclusive classes for one input setting."""

    psi_plus: int
    psi_minus: int


def mode_overlap_at(position, config: ExperimentConfig) -> float | np.ndarray:
    """Photon indistinguishability as a function of mirror displacement.

    Gaussian dip profile M(x) = M0 * exp(-x^2 / (2 sigma^2)); at the default
    sigma the 150 um shoulder retains ~1e-4 of the central overlap.  Takes a
    position or an array; each element gets the bits of a call on it alone.
    """
    m0 = config.analyzer.mode_overlap
    return m0 * np.exp(-(np.asarray(position, dtype=float) ** 2) / (2.0 * config.dip_sigma**2))


def _poisson_means(
    angles: np.ndarray, mode_overlaps: np.ndarray, config: ExperimentConfig, eta: float | np.ndarray = 1.0
) -> np.ndarray:
    """Means of the (Psi+, Psi-) Poisson counts of n input settings, shape (n, 2).

    `angles` holds the plate angles of P periods per setting, shape (n, P, 2, 2):
    [setting, period, photon (data, program), plate (QWP, HWP)],
    `mode_overlaps` the mode overlap of each setting, shape (n,), and `eta`
    one value or one per setting.  P is config.repetitions, or 1 when all
    periods of a setting carry one state.  All n * P periods go from plate
    angles to Stokes vectors to class probabilities in one real-arithmetic
    pass; see simulate_counts for the means.  A class probability below
    _PROB_FLOOR counts as 0.
    """
    etas = np.asarray(eta, dtype=float).reshape(-1, 1)
    if not np.all((0.0 <= etas) & (etas <= 1.0)):
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    n, periods = angles.shape[:2]
    stokes = pol.stokes_from_angles(angles[..., 0], angles[..., 1]).reshape(-1, 2, 3)
    overlaps = np.repeat(mode_overlaps, periods)
    probs = stokes_outcome_probs(stokes[:, 0], stokes[:, 1], config.analyzer, overlaps)
    prob_sums = probs.sum(axis=1)
    if not np.all(np.abs(prob_sums - 1.0) <= _PROB_SUM_TOL):
        raise ValueError(f"analyzer class probabilities do not sum to 1: {prob_sums}")
    # an ideally empty class comes out as 0 or as a residue, by the order of the
    # analyzer's arithmetic; Generator.poisson takes a number from the stream for
    # a residue mean but none for a zero one, so every residue is made exactly 0
    probs = np.where(probs < _PROB_FLOOR, 0.0, probs)

    totals = probs.reshape(n, periods, 3).sum(axis=1) * (config.repetitions / periods)
    detected = config.detector_efficiency**2 * config.pair_rate * config.period
    dark = config.dark_count_rate**2 * config.coincidence_window * config.period
    relabeled = (1.0 - etas) / 2.0 * totals[:, 2:]
    return detected * (totals[:, :2] + relabeled) + 2.0 * dark * config.repetitions


def _block_counts(
    stages: Sequence[tuple[np.ndarray, np.ndarray, float]],
    config: ExperimentConfig,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Recorded (Psi+, Psi-) counts of every stage at the same n points, shape (n, 2 * stages) int64.

    A stage is (nominal plate angles (n, 2, 2), mirror positions (n,), eta);
    stage s draws its jitter from rngs[2s] and its counts from rngs[2s + 1].
    Each stage draws the jitter of all its periods in one uniform draw of
    shape (n, R, 2, 2); the periods of all stages then go through one
    _poisson_means pass, and one Poisson draw of a stage's (n, 2) means gives
    its counts.  Without jitter, each point is analyzed as one period that
    counts R times.
    """
    n = len(stages[0][0])
    angles = []
    for s, (nominal, _, _) in enumerate(stages):
        nominal = np.asarray(nominal, dtype=float).reshape(n, 1, 2, 2)
        if config.angle_jitter > 0.0:
            jitter, shape = config.angle_jitter, (n, config.repetitions, 2, 2)
            nominal = nominal + rngs[2 * s].uniform(-jitter, jitter, size=shape)
        angles.append(nominal)
    overlaps = mode_overlap_at(np.concatenate([positions for _, positions, _ in stages]), config)
    etas = np.repeat([eta for _, _, eta in stages], n)
    means = _poisson_means(np.concatenate(angles), overlaps, config, etas)
    return np.hstack([rngs[2 * s + 1].poisson(means[s * n : (s + 1) * n]) for s in range(len(stages))])


def simulate_counts(
    data_setting: pol.PrepRecipe,
    program_setting: pol.PrepRecipe,
    position: float,
    config: ExperimentConfig,
    rng: np.random.Generator | None = None,
    eta: float = 1.0,
) -> ClassCounts:
    """Simulate the recorded coincidence counts for one input setting.

    The four wave-plate angles of each of the config.repetitions periods get
    their own uniform jitter (without jitter one period stands for all), and
    the analyzer gives each period's Psi+/Psi-/inconclusive probabilities
    p+, p-, p? at the mode overlap of `position`.

    `eta` < 1 emulates the relaxed measurement that relabels a random fraction
    (1 - eta) of inconclusive analyzer outcomes as Psi+/Psi- (half each) before
    detection; eta = 1 is the plain unambiguous analyzer.  A coincidence is
    recorded with probability efficiency^2 (both photons must register).  Dark
    counts add accidentals at rate dark_rate^2 * coincidence_window on each of
    the six detector pairs, two of which are wired to each conclusive class.

    With mu the mean pair number per period and lambda_dark the accidental
    mean per detector pair and period, the class counts are independent
    Poisson draws with means

        lambda+- = efficiency^2 * mu * sum_periods(p+- + (1 - eta)/2 * p?)
                   + 2 * lambda_dark * repetitions,

    which is exact in distribution (see the module docstring).

    Returns:
        ClassCounts with the total recorded Psi+ and Psi- coincidences.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    angles = np.array([[astuple(data_setting), astuple(program_setting)]])
    return ClassCounts(*_block_counts([(angles, [position], eta)], config, (rng, rng))[0].tolist())


def shoulder_counts(
    sign: int, config: ExperimentConfig, rng: np.random.Generator | None = None
) -> ClassCounts:
    """Normalization counts outside the dip with 45-degree linear inputs.

    sign=+1 uses (45, 45) degree inputs, sign=-1 uses (-45, 45); the sum of
    the two recorded classes approaches half the detected pair rate
    independently of the beamsplitter imbalance.
    """
    data, program = pol.recipe_discriminator(0.0, 45.0, sign), pol.recipe_discriminator(0.0, 45.0, +1)
    return simulate_counts(data, program, config.shoulder_position, config, rng)


def _run_stages(
    stages: Sequence[tuple[np.ndarray, np.ndarray, float]],
    config: ExperimentConfig,
) -> np.ndarray:
    """Counts of every stage at n points, each stage drawing from two streams of config.seed.

    A stage is (nominal plate angles (n, 2, 2), mirror positions (n,), eta).
    Stage s takes its jitter from SeedSequence(config.seed).spawn(2 * stages)[2s]
    and its counts from stream 2s + 1 (see the module docstring).  The points
    run in blocks of at most _MAX_STAGE_PERIODS analyzed periods per stage
    (R per point with jitter, 1 without), all stages of a block in one
    _block_counts pass, each block filling its rows of one table.  Returns
    that (n, 2 * stages) int64 table: row i holds the (Psi+, Psi-) counts of
    stage 0, then of stage 1, and so on, at point i.
    """
    n = len(stages[0][0])
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(2 * len(stages))]
    periods = config.repetitions if config.angle_jitter > 0.0 else 1
    block = max(1, _MAX_STAGE_PERIODS // periods)
    counts = np.empty((n, 2 * len(stages)), dtype=np.int64)
    for start in range(0, n, block):
        points = slice(start, start + block)
        block_stages = [(angles[points], positions[points], eta) for angles, positions, eta in stages]
        counts[points] = _block_counts(block_stages, config, rngs)
    return counts


def measure_sweep(angles: np.ndarray, config: ExperimentConfig, eta: float = 1.0) -> np.ndarray:
    """The (n, 8) int64 count table of the n settings of a sweep, drawn at config.pair_rate as given.

    `angles` holds their nominal plate angles, shape (n, 3, 2): [point, input
    (data plus, data minus, program), plate (QWP, HWP)], as
    pol.discriminator_angles gives them.  Row i holds the counts of setting
    i, columns COUNT_COLUMNS.  Each stage draws from its own two streams in
    point order (see _run_stages), so row i does not depend on the points
    after it.  The four stages are main plus, main minus, shoulder plus and
    shoulder minus, which is the COUNT_COLUMNS order.  In the main runs
    the data photon is prepared in its plus, then its minus state while the
    program photon keeps its setting; the shoulder runs use the 45-degree
    inputs outside the dip.  `eta` relaxes the main runs only, so the
    shoulder normalization stays that of the raw measurement.
    """
    angles = np.asarray(angles, dtype=float)
    n = len(angles)
    center, shoulder = np.zeros(n), np.full(n, config.shoulder_position)
    stages = [
        (angles[:, [0, 2]], center, eta),
        (angles[:, [1, 2]], center, eta),
        *((np.broadcast_to(diagonal, (n, 2, 2)), shoulder, 1.0) for diagonal in _DIAGONAL),
    ]
    return _run_stages(stages, config)


@dataclass
class HomScanResult:
    """Coincidence rates (counts/s) of the four input/class combinations vs mirror position."""

    positions: np.ndarray
    rate_pp: np.ndarray
    rate_mp: np.ndarray
    rate_pm: np.ndarray
    rate_mm: np.ndarray
    visibility: float | None
    curve_visibilities: tuple[float, ...] = ()


def _fit_visibility(
    positions: np.ndarray, rates: np.ndarray, sigma_guess: float
) -> tuple[float, float] | None:
    """Least-squares fit of rate(x) = A (1 - V exp(-x^2/(2 s^2))); returns V and the residual.

    The model is linear in (A, A V) at a fixed s, so the fit minimizes the
    residual of that linear solve over log s in [sigma_guess / 10, 10
    sigma_guess]: on _FIT_GRID widths, then by golden-section search around
    the best of them (the residual can have several minima).  None with fewer
    than 4 positions, no positive rate, or positions that leave A and V
    undetermined.
    """
    if len(positions) < 4 or rates.max() <= 0:
        return None

    def solve(log_width: float) -> tuple[float, np.ndarray, int]:
        dip = np.exp(-(positions**2) / (2.0 * math.exp(2.0 * log_width)))
        design = np.column_stack([np.ones_like(dip), -dip])
        coef, _, rank, _ = np.linalg.lstsq(design, rates, rcond=None)
        return float(np.sum((design @ coef - rates) ** 2)), coef, rank

    grid = np.linspace(math.log(sigma_guess / 10.0), math.log(10.0 * sigma_guess), _FIT_GRID)
    best = int(np.argmin([solve(w)[0] for w in grid]))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, _FIT_GRID - 1)]
    left, right = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f_left, f_right = solve(left)[0], solve(right)[0]
    while hi - lo > 1e-9:
        if f_left <= f_right:
            hi, right, f_right = right, left, f_left
            left = hi - _GOLDEN * (hi - lo)
            f_left = solve(left)[0]
        else:
            lo, left, f_left = left, right, f_right
            right = lo + _GOLDEN * (hi - lo)
            f_right = solve(right)[0]
    residual, (amp, amp_vis), rank = solve(0.5 * (lo + hi))
    if rank < 2 or amp == 0.0:
        return None
    return float(amp_vis / amp), residual


def hom_scan(positions: Sequence[float], config: ExperimentConfig) -> HomScanResult:
    """Scan the mirror through the dip with 45-degree-type inputs.

    Per position, records the Psi+/Psi- class rates for the (45, 45) input
    (rate_pp rises toward the dip center, rate_mp dips) and for the (-45, 45)
    input (rate_pm dips, rate_mm rises).  The scan runs as two stages over
    all positions, each with its own jitter and count streams (see
    _run_stages).  The two dipping curves are fitted with a Gaussian dip;
    their mean fitted visibility estimates the mode overlap at zero
    displacement.
    """
    if len(positions) == 0:
        raise ValueError("positions must be nonempty")
    pos = np.asarray(positions, dtype=float)
    stages = [(np.broadcast_to(diagonal, (len(pos), 2, 2)), pos, 1.0) for diagonal in _DIAGONAL]
    # columns rate_pp, rate_mp, rate_pm, rate_mm; rate_mp and rate_pm dip
    rates = _run_stages(stages, config) / (config.repetitions * config.period)
    dips = (rates[:, 1], rates[:, 2])
    fits = [f[0] for f in (_fit_visibility(pos, r, config.dip_sigma) for r in dips) if f is not None]
    visibility = float(np.mean(fits)) if fits else None
    return HomScanResult(pos, *rates.T, visibility, tuple(fits))


def with_pairs_per_point(config: ExperimentConfig, pairs_per_point: float) -> ExperimentConfig:
    """Config whose expected pair count per input setting equals pairs_per_point."""
    if not 0.0 < pairs_per_point < math.inf:
        raise ValueError(f"pairs per point must be a finite number > 0, got {pairs_per_point!r}")
    rate = pairs_per_point / (config.period * config.repetitions)
    return replace(config, pair_rate=rate)


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-ready snapshot of an ExperimentConfig."""
    return asdict(config)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Parse a config mapping, rejecting unknown keys by name."""
    if not isinstance(data, dict):
        raise SchemaViolationError(f"a config must be a JSON object, got {type(data).__name__}")
    data = dict(data)
    analyzer_data = data.pop("analyzer", {})
    if not isinstance(analyzer_data, dict):
        raise SchemaViolationError(
            f"the analyzer config must be a JSON object, got {type(analyzer_data).__name__}"
        )
    for label, cls, given in (
        ("analyzer config", AnalyzerConfig, analyzer_data),
        ("config", ExperimentConfig, data),
    ):
        unknown = set(given) - {f.name for f in fields(cls)}
        if unknown:
            raise SchemaViolationError(f"unknown {label} key {sorted(unknown)[0]!r}")
    return ExperimentConfig(analyzer=AnalyzerConfig(**analyzer_data), **data)
