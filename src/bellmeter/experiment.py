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

A sweep (sweep_blocks) runs over the product of its grid axes, last axis
fastest, as four stages, one per input setting (main plus, main minus,
shoulder plus, shoulder minus), and each stage has two random streams of its
own, spawned from config.seed: stage s takes its plate jitter from stream 2s
and its counts from stream 2s + 1.  The points run through one block loop
(_drawn_blocks), in blocks of at most 4096 analyzed periods per stage (R per
point with angle_jitter > 0, else 1), each drawn by _draw_block.  In a block each stage
first draws the jitter of its periods, R x 2 x 2 uniforms per point in one
array draw (only when angle_jitter > 0); the periods of all stages then go
from plate angles to Stokes vectors to class probabilities in one
real-arithmetic pass (polarization.stokes_from_angles,
analyzer.stokes_outcome_probs; without jitter all periods of a point carry one
state, so each point is analyzed as one period that counts R times); last, one
Poisson draw per stage gives every point its (Psi+, Psi-) pair.  Both streams
of a stage are consumed in point order, so the block size changes no draw, and
the first k rows of a sweep equal the sweep of its first k points.  The mirror
scan (hom_scan_blocks) runs through the same block loop as two stages, the
+45 and -45 degree data inputs, and one input setting (simulate_counts) is one
stage drawn as a block of one point.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import polarization as pol
from .analyzer import AnalyzerConfig, check_bounds, check_fields, stokes_outcome_probs
from .counts import Column, MultimeterPoint
from .errors import SchemaViolationError

# tolerance on the sum of each period's class probabilities
_PROB_SUM_TOL = 1e-9

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

# the fields that idealized() and config_from_dict(ideal=True) set; both also keep only the analyzer's detector_map
_SWITCHED_OFF = {"detector_efficiency": 1.0, "dark_count_rate": 0.0, "angle_jitter": 0.0}

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_FIT_GRID = 64  # log-spaced dip widths the visibility fit tries before its golden-section search

# a dip-fit solve is singular below this share of n^2 in its determinant n sum(d^2) - sum(d)^2
# = n^2 Var(d): the dip profile d in [0, 1] then varies by under 1e-5, too little to fix A and V,
# and the determinant's rounding error (< 3e-13 n^2 at 10^6 equal positions) stays far below it
_FIT_MIN_DET = 1e-10


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of the emulated experiment.

    pair_rate is in photon pairs per second, dark_count_rate in counts per
    second per detector, dip_sigma and shoulder_position in micrometers of
    mirror displacement, angle_jitter in degrees (uniform, resampled per
    measurement period for every wave plate).
    """

    pair_rate: float = field(default=100_000.0, metadata={"bounds": "[0, inf)"})
    period: float = field(default=1.0, metadata={"bounds": "(0, inf)"})
    repetitions: int = field(default=10, metadata={"bounds": "[1, inf)"})
    detector_efficiency: float = field(default=0.5, metadata={"bounds": "(0, 1]"})  # at 0 every count is 0
    dark_count_rate: float = field(default=100.0, metadata={"bounds": "[0, inf)"})
    coincidence_window: float = field(default=10e-9, metadata={"bounds": "[0, inf)"})
    dip_sigma: float = field(default=35.0, metadata={"bounds": "[1e-100, 1e100]"})  # so sigma^2 is a normal float
    shoulder_position: float = 150.0
    # a plate's period; far beyond, the draw's range overflows
    angle_jitter: float = field(default=1.0, metadata={"bounds": "[0, 180]"})
    seed: int = field(default=12345, metadata={"bounds": "[0, inf)"})
    analyzer: AnalyzerConfig = field(default_factory=AnalyzerConfig)

    def __post_init__(self):
        check_fields(type(self), vars(self))
        try:
            worst_mean = self.pair_rate * self.period * self.repetitions + _accidentals(self)
        except OverflowError:  # a repetitions integer beyond the float range, or a dark rate squared beyond it
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
        return replace(self, **_SWITCHED_OFF, analyzer=AnalyzerConfig(detector_map=self.analyzer.detector_map))


class ClassCounts(NamedTuple):
    """Coincidence counts of the two conclusive classes for one input setting."""

    psi_plus: int
    psi_minus: int


def mode_overlap_at(position, config: ExperimentConfig) -> float | np.ndarray:
    """Photon indistinguishability as a function of mirror displacement.

    Gaussian dip profile M(x) = M0 * exp(-x^2 / (2 sigma^2)); at the default
    sigma the 150 um shoulder retains ~1e-4 of the central overlap, and a
    position whose square overflows gets 0.  Takes a position or an array;
    each element gets the bits of a call on it alone.
    """
    m0 = config.analyzer.mode_overlap
    with np.errstate(over="ignore"):
        return m0 * np.exp(-(np.asarray(position, dtype=float) ** 2) / (2.0 * config.dip_sigma**2))


def _accidentals(config: ExperimentConfig) -> float:
    """Mean dark-count accidentals of one conclusive class over an input setting (see simulate_counts);
    OverflowError where the dark rate's square, or repetitions, lies beyond the float range."""
    return 2.0 * (config.dark_count_rate**2 * config.coincidence_window * config.period) * config.repetitions


def check_eta(eta: float | np.ndarray) -> np.ndarray:
    """`eta` as a float array; ValueError naming its first value outside the bounds of MultimeterPoint.eta."""
    return check_bounds(MultimeterPoint, "eta", np.asarray(eta, dtype=float))


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
    pass; see simulate_counts for the means.  An unreachable class adds
    exactly 0 (analyzer._PROB_FLOOR), so without accidentals its mean is 0,
    for which Poisson takes no number from the stream.
    """
    etas = check_eta(eta).reshape(-1, 1)
    n, periods = angles.shape[:2]
    stokes = pol.stokes_from_angles(angles[..., 0], angles[..., 1]).reshape(-1, 2, 3)
    overlaps = np.repeat(mode_overlaps, periods)
    probs = stokes_outcome_probs(stokes[:, 0], stokes[:, 1], config.analyzer, overlaps)
    prob_sums = probs[:, 0] + probs[:, 1] + probs[:, 2]
    bad = np.flatnonzero(~(np.abs(prob_sums - 1.0) <= _PROB_SUM_TOL))
    if len(bad):
        raise ValueError(f"analyzer class probabilities do not sum to 1: row {bad[0]} sums to {prob_sums[bad[0]]}")
    totals = probs.reshape(n, periods, 3).sum(axis=1) * (config.repetitions / periods)
    detected = config.detector_efficiency**2 * config.pair_rate * config.period
    relabeled = (1.0 - etas) / 2.0 * totals[:, 2:]
    return detected * (totals[:, :2] + relabeled) + _accidentals(config)


def simulate_counts(
    data_setting: pol.PrepRecipe,
    program_setting: pol.PrepRecipe,
    position: float,
    config: ExperimentConfig,
    rng: np.random.Generator | None = None,
    eta: float = 1.0,
) -> ClassCounts:
    """Simulate the recorded coincidence counts for one input setting, drawn as a block of one point.

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
    return ClassCounts(*_draw_block([(angles, np.array([position]), eta)], config, (rng, rng))[0].tolist())


def shoulder_counts(
    sign: int, config: ExperimentConfig, rng: np.random.Generator | None = None
) -> ClassCounts:
    """Normalization counts outside the dip with 45-degree linear inputs.

    sign=+1 uses (45, 45) degree inputs, sign=-1 uses (-45, 45); the sum of
    the two recorded classes approaches half the detected pair rate
    independently of the beamsplitter imbalance.
    """
    data, program = (pol.PrepRecipe(*plates) for plates in _DIAGONAL[0 if sign >= 0 else 1].tolist())
    return simulate_counts(data, program, config.shoulder_position, config, rng)


def _draw_block(
    stages: Sequence[tuple[np.ndarray, np.ndarray, float]],
    config: ExperimentConfig,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """The (size, 2 * stages) int64 counts of one block of points.

    A stage is (nominal plate angles (size, 2, 2), or (2, 2) for every point,
    mirror positions (size,), eta).  Stage s takes its jitter from rngs[2s]
    and its counts from rngs[2s + 1]; row i holds the (Psi+, Psi-) counts of
    stage 0, then of stage 1, and so on, at point i.
    """
    size = len(stages[0][1])
    angles = []
    for s, (nominal, _, _) in enumerate(stages):
        nominal = np.broadcast_to(np.asarray(nominal, dtype=float).reshape(-1, 1, 2, 2), (size, 1, 2, 2))
        if config.angle_jitter > 0.0:
            jitter, shape = config.angle_jitter, (size, config.repetitions, 2, 2)
            nominal = nominal + rngs[2 * s].uniform(-jitter, jitter, size=shape)
        angles.append(nominal)
    overlaps = mode_overlap_at(np.concatenate([positions for _, positions, _ in stages]), config)
    etas = np.repeat([eta for _, _, eta in stages], size)
    means = _poisson_means(np.concatenate(angles), overlaps, config, etas)
    return np.hstack([rngs[2 * s + 1].poisson(means[s * size : (s + 1) * size]) for s in range(len(stages))])


def _drawn_blocks(n: int, stages_at: Callable, config: ExperimentConfig) -> Iterator[tuple]:
    """The one block loop over the points 0 .. n-1, in blocks of at most _MAX_STAGE_PERIODS analyzed
    periods per stage: stages_at(points), a slice, gives a head and the block's stages, whose
    _draw_block counts come with the head.  The first block's stages fix their number: stage s
    draws from streams 2s, 2s + 1 of the 2 x stages spawned from config.seed then."""
    rngs = None
    block = max(1, _MAX_STAGE_PERIODS // (config.repetitions if config.angle_jitter > 0.0 else 1))
    for start in range(0, n, block):
        head, block_stages = stages_at(slice(start, min(start + block, n)))
        if rngs is None:  # a jitter stream (2s) is drawn from only when angle_jitter > 0; it is spawned either way
            streams = np.random.SeedSequence(config.seed).spawn(2 * len(block_stages))
            rngs = [np.random.default_rng(seq) if i % 2 or config.angle_jitter > 0.0 else None
                    for i, seq in enumerate(streams)]
        yield head, _draw_block(block_stages, config, rngs)


def sweep_blocks(
    axes: Sequence[Sequence[float]],
    angles_of: Callable[..., np.ndarray],
    config: ExperimentConfig,
    eta: float = 1.0,
) -> Iterator[tuple[tuple[np.ndarray, ...], np.ndarray]]:
    """A sweep over the product of the grid axes block by block: the coordinates and the (size, 8) counts of each block.

    The points run last axis fastest.  A block's coordinates hold each
    axis's values at its points, and angles_of(*coordinates) their (size, 3, 2) nominal plate
    angles [point, input (data plus, data minus, program), plate (QWP, HWP)],
    so only one block of angles exists at a time.  The counts, drawn at
    config.pair_rate, come in the COUNT_COLUMNS order of the four stages:
    main plus and main minus (the data photon in its plus, then its minus
    state, the program photon keeping its setting), then shoulder plus and
    shoulder minus (the 45-degree inputs outside the dip).  Each stage draws
    from its own two streams in point order, so the block size changes no
    draw and row i does not depend on the points after it.  `eta` relaxes
    the main runs only, so the shoulder normalization stays that of the raw
    measurement.
    """
    # arrays, so that no grid list is kept alive through the sweep
    axes = [np.asarray(axis, dtype=float) for axis in axes]
    shape = tuple(len(axis) for axis in axes)

    def stages(points: slice) -> tuple[tuple[np.ndarray, ...], list]:
        index = np.unravel_index(np.arange(points.start, points.stop), shape)
        coordinates = tuple(axis[i] for axis, i in zip(axes, index))
        angles = np.asarray(angles_of(*coordinates), dtype=float)
        center, shoulder = np.zeros(len(angles)), np.full(len(angles), config.shoulder_position)
        main = [(angles[:, [data, 2]], center, eta) for data in (0, 1)]
        return coordinates, main + [(diagonal, shoulder, 1.0) for diagonal in _DIAGONAL]

    return _drawn_blocks(math.prod(shape), stages, config)


# the columns of a `hom-scan` dataset, in hom_scan_blocks order: the position, then the (Psi+, Psi-)
# rates of each stage, the (45, 45) input's before the (-45, 45) input's; rate_mp and rate_pm, which
# the dip fit reads, dip under the geometric phase (without it, rate_pp and rate_mm do)
HOM_SCAN_COLUMNS = (Column("position", "coordinate"),
                    *(Column(name, "derived") for name in ("rate_pp", "rate_mp", "rate_pm", "rate_mm")))


@dataclass
class HomScanResult:
    """A mirror scan: its array fields hold the HOM_SCAN_COLUMNS in order, rates in counts/s."""

    positions: np.ndarray
    rate_pp: np.ndarray
    rate_mp: np.ndarray
    rate_pm: np.ndarray
    rate_mm: np.ndarray
    visibility: float | None
    curve_visibilities: tuple[float, ...] = ()


def _fit_visibility(positions: np.ndarray, rates: np.ndarray, sigma_guess: float) -> tuple[float, float] | None:
    """Least-squares fit of rate(x) = A (1 - V exp(-x^2/(2 s^2))); returns V and the residual.

    At a fixed s the model is linear in (A, A V), solved from the 2x2 normal
    equations of the sums of d, d^2, r and r d (d the dip profile, r the rates
    over their largest, so no square overflows).  The fit minimizes the
    residual over log s in [sigma_guess / 10, 10 sigma_guess]: on _FIT_GRID
    widths, then by golden-section search around the best of them (the
    residual can have several minima); a singular solve (_FIT_MIN_DET) counts
    as residual inf.  None with fewer than 4 positions, no positive rate, or
    a singular solve at the best width.
    """
    n, scale = len(positions), float(np.max(rates, initial=0.0))
    if n < 4 or scale <= 0:
        return None
    scaled = rates / scale
    sum_r = float(scaled.sum())
    with np.errstate(over="ignore", under="ignore"):  # a far position gets dip 0
        neg_half_sq = -(positions**2) / 2.0

    def solve(log_width: float) -> tuple[float, float | None]:
        with np.errstate(over="ignore", under="ignore"):
            dip = np.exp(neg_half_sq / math.exp(2.0 * log_width))
        sum_d, sum_dd, sum_rd = float(dip.sum()), float(dip @ dip), float(scaled @ dip)
        det = n * sum_dd - sum_d * sum_d
        if det <= _FIT_MIN_DET * n * n:
            return math.inf, None
        amp, slope = (sum_dd * sum_r - sum_d * sum_rd) / det, (n * sum_rd - sum_d * sum_r) / det
        residuals = dip * slope + amp - scaled  # numpy reuses the temporary of dip * slope
        return float(residuals @ residuals), -slope / amp if amp else None

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
    residual, visibility = solve(0.5 * (lo + hi))
    # in Python floats, so a residual beyond the float range is inf without a warning
    return None if visibility is None else (visibility, residual * scale * scale)


def hom_scan_blocks(positions: Sequence[float], config: ExperimentConfig, fit: dict) -> Iterator[list[np.ndarray]]:
    """The mirror scan block by block: the HOM_SCAN_COLUMNS, rates in counts/s.

    Only the positions, rate_mp and rate_pm are kept, and after the last
    block `fit` gets their Gaussian-dip visibilities (curve_visibilities,
    those that fit) and the mean (fitted_visibility, None if neither fits),
    which estimates the mode overlap.  Empty positions raise ValueError on the call.
    """
    pos = np.asarray(positions, dtype=float)
    if len(pos) == 0:
        raise ValueError("positions must be nonempty")
    dips = np.empty((2, len(pos)))  # rate_mp and rate_pm

    def blocks() -> Iterator[list[np.ndarray]]:
        drawn = _drawn_blocks(len(pos), lambda points: (points, [(d, pos[points], 1.0) for d in _DIAGONAL]), config)
        for points, counts in drawn:
            rates = counts / (config.repetitions * config.period)
            dips[:, points] = rates[:, 1:3].T
            yield [pos[points], *rates.T]
        fits = [f[0] for f in (_fit_visibility(pos, rates, config.dip_sigma) for rates in dips) if f is not None]
        fit.update(fitted_visibility=float(np.mean(fits)) if fits else None, curve_visibilities=fits)

    return blocks()


def hom_scan(positions: Sequence[float], config: ExperimentConfig) -> HomScanResult:
    """The hom_scan_blocks scan joined into one result."""
    fit: dict = {}
    table = np.hstack(list(hom_scan_blocks(positions, config, fit)))
    return HomScanResult(*table, fit["fitted_visibility"], tuple(fit["curve_visibilities"]))


def with_pairs_per_point(config: ExperimentConfig, pairs_per_point: float) -> ExperimentConfig:
    """Config whose expected pair count per input setting equals pairs_per_point.

    ValueError when the count is not finite and above 0, when the rate
    pairs / (period * repetitions) is not (either side may overflow), or when
    no input setting can expect one coincidence: detector_efficiency^2 *
    pairs plus the dark accidentals of both conclusive classes bound every
    class mean.
    """
    if not 0.0 < pairs_per_point < math.inf:
        raise ValueError(f"pairs per point must be a finite number > 0, got {pairs_per_point!r}")
    rate = pairs_per_point / (config.period * config.repetitions)
    if not 0.0 < rate < math.inf:
        raise ValueError(
            "pairs per point / (period * repetitions) must be a finite rate above 0,"
            f" got {pairs_per_point!r} / ({config.period!r} * {config.repetitions!r})"
        )
    config = replace(config, pair_rate=rate)
    most = config.detector_efficiency * config.detector_efficiency * pairs_per_point + _accidentals(config)
    if not most >= 1.0:
        raise ValueError(
            "detector_efficiency^2 * pairs + 2 * dark_count_rate^2 * coincidence_window * period"
            f" * repetitions must be at least 1, so that an input setting can expect a coincidence, got {most:g}"
        )
    return config


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-ready snapshot of an ExperimentConfig."""
    return asdict(config)


def config_from_dict(data: dict, ideal: bool = False, **flags) -> ExperimentConfig:
    """The config of a mapping such as a config file's: unknown keys rejected by name, each value checked by its
    field's rule, then the fields idealized() sets if `ideal`, then `flags`, and ExperimentConfig built once, so
    the rules that join fields run only on the config put together, not on values that it replaces."""
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
    analyzer = AnalyzerConfig(**analyzer_data)
    check_fields(ExperimentConfig, data)
    if ideal:
        data, analyzer = {**data, **_SWITCHED_OFF}, AnalyzerConfig(detector_map=analyzer.detector_map)
    return ExperimentConfig(**{**data, **flags}, analyzer=analyzer)
