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
shoulder plus, shoulder minus).  In a stage every point first draws its
plate jitter, R x 2 x 2 uniforms (only when angle_jitter > 0), from its own
random stream; the periods of all points are then prepared and analyzed in
one array pass (without jitter all periods of a setting carry one state, so
each distinct state of the stage is analyzed once and counts R times); last,
every point makes its one Poisson draw of the (Psi+, Psi-) pair from its
stream.  Each point's stream thus sees, stage after stage, jitter uniforms
then one Poisson pair: the same draws, in the same order, as four
simulate_counts calls on that stream.  A sweep with more than 4096 periods
per input setting runs the four stages block by block of points, which
leaves every stream's draws unchanged.  The mirror scan through the dip runs
the same way, as two stages (the +45 and -45 degree data inputs) over its
positions, one random stream per position.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field, fields, replace
from numbers import Integral, Real
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import polarization as pol
from .analyzer import AnalyzerConfig, product_outcome_probs
from .errors import InvalidNormalizationError, NoDataError, SchemaViolationError

# tolerance on the sum of each period's class probabilities
_PROB_SUM_TOL = 1e-9

# bound on the worst-case Poisson mean of an input setting; numpy's
# Generator.poisson rejects means above about 9.2e18
_MAX_POISSON_MEAN = 1e18

# a sweep is measured in blocks of points with at most this many periods per
# input setting, so the working arrays of a stage (about 0.8 kB per period)
# stay a few MB however many points or repetitions the sweep has
_MAX_STAGE_PERIODS = 4096

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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and (
                not isinstance(value, Real) or isinstance(value, bool) or not math.isfinite(value)
            ):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
            if f.type == "int" and (not isinstance(value, Integral) or isinstance(value, bool)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
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

    @staticmethod
    def ideal(pair_rate: float = 100_000.0, seed: int = 12345) -> "ExperimentConfig":
        """Lossless, noiseless, perfectly aligned reference configuration."""
        return ExperimentConfig(
            pair_rate=pair_rate,
            detector_efficiency=1.0,
            dark_count_rate=0.0,
            angle_jitter=0.0,
            seed=seed,
            analyzer=AnalyzerConfig(),
        )

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


@dataclass(frozen=True)
class CountRecord:
    """The eight count sums entering the success and inconclusive-rate estimators.

    First index: detected Bell class (p = Psi+, m = Psi-).  Second index:
    input setting (p = plus-type input, m = minus-type input).  The sh_*
    fields are the corresponding shoulder (normalization) counts taken with
    45-degree linear inputs outside the dip.  The fields run input by input
    (main plus, main minus, shoulder plus, shoulder minus), Psi+ before Psi-;
    this is also the column order of the datasets (COUNT_COLUMNS).
    """

    c_pp: int
    c_mp: int
    c_pm: int
    c_mm: int
    sh_pp: int
    sh_mp: int
    sh_pm: int
    sh_mm: int

    def __post_init__(self):
        for name in COUNT_COLUMNS:
            object.__setattr__(self, name, _checked_count(name, getattr(self, name)))

    @property
    def conclusive_total(self) -> int:
        return self.c_pp + self.c_pm + self.c_mp + self.c_mm

    def normalized_rate(self, c_plus: int, c_minus: int) -> tuple[float, float]:
        """Shoulder-normalized mean rate and its first-order propagated error.

        Returns 1/2 [c_plus / (2 S+) + c_minus / (2 S-)] with the shoulder sums
        S+ = sh_pp + sh_mp and S- = sh_mm + sh_pm, and its standard error
        treating every count sum as Poisson with variance equal to its value.
        Raises InvalidNormalizationError unless both shoulder sums are positive.
        """
        s_plus = self.sh_pp + self.sh_mp
        s_minus = self.sh_mm + self.sh_pm
        if s_plus <= 0 or s_minus <= 0:
            raise InvalidNormalizationError(
                f"shoulder sums must be positive, got {s_plus} and {s_minus}"
            )
        value = 0.5 * (c_plus / (2.0 * s_plus) + c_minus / (2.0 * s_minus))
        var_a = c_plus / (4.0 * s_plus**2) + c_plus**2 / (4.0 * s_plus**3)
        var_b = c_minus / (4.0 * s_minus**2) + c_minus**2 / (4.0 * s_minus**3)
        return value, 0.5 * math.sqrt(var_a + var_b)

    def wrong_class_rate(self) -> tuple[float, float]:
        """Fraction of conclusive events with the wrong Bell class, and its binomial error.

        Raises NoDataError when no conclusive event was recorded.
        """
        total = self.conclusive_total
        if total <= 0:
            raise NoDataError("no conclusive events recorded")
        rate = (self.c_mp + self.c_pm) / total
        return rate, math.sqrt(rate * (1.0 - rate) / total)

    def estimates(self) -> Estimates:
        """Every estimate of the record, NaN where the counts leave it undefined.

        P_succ = normalized_rate(C++, C--), P_I = 1 - normalized_rate(C++ + C-+,
        C-- + C+-) (both NaN unless both shoulder sums are positive) and the
        wrong-class rate (NaN without conclusive events); a one-row
        estimate_table.
        """
        return estimate_records([self])[0]


COUNT_COLUMNS = tuple(f.name for f in fields(CountRecord))


class Estimates(NamedTuple):
    """The estimates of one CountRecord; the fields are the estimate columns of `analyze`."""

    p_succ: float
    p_succ_stderr: float
    p_inconclusive: float
    pi_stderr: float
    error_rate: float
    error_rate_stderr: float


# counts are held in int64 tables
_COUNT_LIMIT = 2**63

# the counts of a CountRecord as a tuple, in COUNT_COLUMNS order
_record_counts = operator.attrgetter(*COUNT_COLUMNS)


def _checked_count(name: str, value) -> int:
    """`value` as an int, or ValueError naming `name` unless it is an integer in [0, 2**63)."""
    if not 0 <= value < _COUNT_LIMIT or int(value) != value:
        raise ValueError(f"{name} must be a nonnegative integer below 2**63, got {value}")
    return int(value)


def _count_column(name: str, values: Sequence) -> np.ndarray:
    """One count column as int64, checked like a CountRecord field."""
    if set(map(type, values)) <= {int}:
        try:
            column = np.array(values, dtype=np.int64)
        except OverflowError:  # a count of 2**63 or more: named below
            pass
        else:
            if not len(column) or column.min() >= 0:
                return column
    return np.array([_checked_count(name, value) for value in values], dtype=np.int64)


def count_table(columns: Mapping[str, Sequence]) -> np.ndarray:
    """The (n, 8) int64 table of the COUNT_COLUMNS entries of `columns`.

    A value that is not an integer in [0, 2**63) raises ValueError naming
    its column, as a CountRecord field would; an integral float such as
    13.0 is taken as its integer.
    """
    table = np.empty((len(columns[COUNT_COLUMNS[0]]), len(COUNT_COLUMNS)), dtype=np.int64)
    for j, name in enumerate(COUNT_COLUMNS):
        table[:, j] = _count_column(name, columns[name])
    return table


def _normalized_rates(c_plus, c_minus, s_plus, s_minus):
    """CountRecord.normalized_rate over arrays, grouped as it is: (s * s) * s, var_a + var_b."""
    value = 0.5 * (c_plus / (2.0 * s_plus) + c_minus / (2.0 * s_minus))
    var_a = c_plus / (4.0 * (s_plus * s_plus)) + (c_plus * c_plus) / (4.0 * (s_plus * s_plus * s_plus))
    var_b = c_minus / (4.0 * (s_minus * s_minus)) + (c_minus * c_minus) / (
        4.0 * (s_minus * s_minus * s_minus)
    )
    return value, 0.5 * np.sqrt(var_a + var_b)


def estimate_table(counts) -> np.ndarray:
    """Every estimate of n count rows: an (n, 6) float64 array, columns Estimates._fields.

    `counts` is (n, 8), columns in COUNT_COLUMNS order.  Row i holds what
    CountRecord.normalized_rate and wrong_class_rate give for row i (see
    CountRecord.estimates), NaN where a shoulder sum is not positive (first
    four) or there is no conclusive count (last two).  The arithmetic is
    float64 from the start and keeps the scalar grouping, and IEEE + - * /
    and sqrt round correctly, so the result equals the scalar one bit for
    bit while the conclusive total is below 2**53 and both shoulder sums are
    below 2**26.5 (about 9.49e7: then s * s is exact and (s * s) * s is one
    rounding of s**3, as in the scalar code).  Beyond those bounds a value
    can differ from the scalar one in its last bits.  Every row is computed
    on its own: it does not depend on the other rows of the table.
    """
    table = np.asarray(counts, dtype=np.float64)
    if table.size == 0:
        table = table.reshape(0, len(COUNT_COLUMNS))
    if table.ndim != 2 or table.shape[1] != len(COUNT_COLUMNS):
        raise ValueError(f"a count table has shape (n, {len(COUNT_COLUMNS)}), got {table.shape}")
    c_pp, c_mp, c_pm, c_mm, sh_pp, sh_mp, sh_pm, sh_mm = table.T
    s_plus, s_minus = sh_pp + sh_mp, sh_mm + sh_pm
    total = c_pp + c_pm + c_mp + c_mm
    out = np.empty((len(table), len(Estimates._fields)))
    with np.errstate(divide="ignore", invalid="ignore"):
        out[:, 0], out[:, 1] = _normalized_rates(c_pp, c_mm, s_plus, s_minus)
        conclusive, out[:, 3] = _normalized_rates(c_pp + c_mp, c_mm + c_pm, s_plus, s_minus)
        out[:, 2] = 1.0 - conclusive
        rate = (c_mp + c_pm) / total
        out[:, 4] = rate
        out[:, 5] = np.sqrt(rate * (1.0 - rate) / total)
    out[~((s_plus > 0) & (s_minus > 0)), :4] = np.nan
    out[~(total > 0), 4:] = np.nan
    return out


def estimate_records(records: Sequence[CountRecord]) -> list[Estimates]:
    """The Estimates of every record, from one estimate_table call."""
    rows = estimate_table(list(map(_record_counts, records))).tolist()
    return [Estimates(*row) for row in rows]


class ClassCounts(NamedTuple):
    """Coincidence counts of the two conclusive classes for one input setting."""

    psi_plus: int
    psi_minus: int


def mode_overlap_at(position: float, config: ExperimentConfig) -> float:
    """Photon indistinguishability as a function of mirror displacement.

    Gaussian dip profile M(x) = M0 * exp(-x^2 / (2 sigma^2)); at the default
    sigma the 150 um shoulder retains ~1e-4 of the central overlap.
    """
    m0 = config.analyzer.mode_overlap
    return m0 * math.exp(-(position**2) / (2.0 * config.dip_sigma**2))


def _poisson_means(
    angles: np.ndarray, mode_overlaps: np.ndarray, config: ExperimentConfig, eta: float = 1.0
) -> np.ndarray:
    """Means of the (Psi+, Psi-) Poisson counts of n input settings, shape (n, 2).

    `angles` holds the plate angles of P periods per setting, shape (n, P, 2, 2):
    [setting, period, photon (data, program), plate (QWP, HWP)], and
    `mode_overlaps` the mode overlap of each setting, shape (n,).  P is
    config.repetitions, or 1 when all periods of a setting carry one state.
    All n * P periods are prepared and analyzed in one pass; see
    simulate_counts for the means.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    n, periods = angles.shape[:2]
    jones = pol.prepare_from_angles(angles[..., 0], angles[..., 1]).reshape(-1, 2, 2)
    overlaps = np.repeat(mode_overlaps, periods)
    probs = product_outcome_probs(jones[:, 0], jones[:, 1], config.analyzer, overlaps)
    prob_sums = probs.sum(axis=1)
    if not np.all(np.abs(prob_sums - 1.0) <= _PROB_SUM_TOL):
        raise ValueError(f"analyzer class probabilities do not sum to 1: {prob_sums}")

    totals = probs.reshape(n, periods, 3).sum(axis=1) * (config.repetitions / periods)
    detected = config.detector_efficiency**2 * config.pair_rate * config.period
    dark = config.dark_count_rate**2 * config.coincidence_window * config.period
    relabeled = (1.0 - eta) / 2.0 * totals[:, 2:]
    return detected * (totals[:, :2] + relabeled) + 2.0 * dark * config.repetitions


def _setting_angles(data: pol.PrepRecipe, program: pol.PrepRecipe) -> list[list[float]]:
    """Nominal plate angles of an input setting: [photon (data, program)][plate (QWP, HWP)]."""
    return [[data.qwp_deg, data.hwp_deg], [program.qwp_deg, program.hwp_deg]]


def _stage_counts(
    angles: Sequence[list[list[float]]],
    positions: Sequence[float],
    config: ExperimentConfig,
    rngs: Sequence[np.random.Generator],
    eta: float = 1.0,
) -> list[ClassCounts]:
    """Recorded counts of one input setting at n points, point i drawing from rngs[i].

    `angles` holds the nominal plate angles of the points, shape (n, 2, 2),
    and `positions` their mirror positions.  Each point draws the jitter of
    its periods, all points are prepared and analyzed together, then each
    point makes its Poisson draw.  Without jitter, each distinct (plate
    angles, mode overlap) of the stage is analyzed once, as one period.
    """
    n = len(rngs)
    xs, x_of_point = np.unique(np.asarray(positions, dtype=float), return_inverse=True)
    overlaps = np.array([mode_overlap_at(x, config) for x in xs])[x_of_point]
    angles = np.asarray(angles, dtype=float).reshape(n, 1, 2, 2)
    if config.angle_jitter > 0.0:
        jitter, shape = config.angle_jitter, (config.repetitions, 2, 2)
        angles = angles + np.stack([rng.uniform(-jitter, jitter, size=shape) for rng in rngs])
        means = _poisson_means(angles, overlaps, config, eta)
    else:
        settings = np.column_stack([angles.reshape(n, 4), overlaps])
        keys, inverse = np.unique(settings, axis=0, return_inverse=True)
        means = _poisson_means(keys[:, :4].reshape(-1, 1, 2, 2), keys[:, 4], config, eta)[inverse]
    # two scalar draws take the same numbers from a stream as one draw of the
    # pair, without the per-call checks numpy runs on array arguments
    return [
        ClassCounts(int(rng.poisson(plus)), int(rng.poisson(minus)))
        for rng, (plus, minus) in zip(rngs, means)
    ]


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
    angles = [_setting_angles(data_setting, program_setting)]
    return _stage_counts(angles, [position], config, [rng], eta)[0]


def _diagonal_setting(sign: int) -> tuple[pol.PrepRecipe, pol.PrepRecipe]:
    """Data and program recipes of the (sign * 45, 45) inputs of the shoulder runs and HOM scan."""
    return pol.recipe_discriminator(0.0, 45.0, sign), pol.recipe_discriminator(0.0, 45.0, +1)


def shoulder_counts(
    sign: int, config: ExperimentConfig, rng: np.random.Generator | None = None
) -> ClassCounts:
    """Normalization counts outside the dip with 45-degree linear inputs.

    sign=+1 uses (45, 45) degree inputs, sign=-1 uses (-45, 45); the sum of
    the two recorded classes approaches half the detected pair rate
    independently of the beamsplitter imbalance.
    """
    return simulate_counts(*_diagonal_setting(sign), config.shoulder_position, config, rng)


def _run_stages(
    stages: Sequence[tuple[Sequence[list[list[float]]], Sequence[float], float]],
    config: ExperimentConfig,
    seed: int,
) -> list[list[ClassCounts]]:
    """Counts of every stage at n points, point i drawing from SeedSequence(seed).spawn(n)[i].

    A stage is (nominal plate angles per point, mirror position per point,
    eta).  The stages run in turn over all points (see the module
    docstring), in blocks of at most _MAX_STAGE_PERIODS periods per stage
    (one block for up to 4096 / repetitions points).  Returns the counts of
    stage s at point i as result[s][i].
    """
    n = len(stages[0][0])
    streams = np.random.SeedSequence(seed).spawn(n)
    block = max(1, _MAX_STAGE_PERIODS // config.repetitions)
    counts: list[list[ClassCounts]] = [[] for _ in stages]
    for start in range(0, n, block):
        points = slice(start, start + block)
        rngs = [np.random.default_rng(s) for s in streams[points]]
        for stage_counts, (angles, positions, eta) in zip(counts, stages):
            stage_counts += _stage_counts(angles[points], positions[points], config, rngs, eta)
    return counts


def measure_sweep(
    settings: Sequence[tuple[pol.PrepRecipe, pol.PrepRecipe, pol.PrepRecipe]],
    config: ExperimentConfig,
    pairs_per_point: float,
    seed: int | None,
    eta: float = 1.0,
) -> list[CountRecord]:
    """Count records of every (data_plus, data_minus, program) setting of a sweep.

    Point i draws from its own stream SeedSequence(seed).spawn(n)[i], with
    seed defaulting to config.seed, so points are reproducible individually.
    The four stages are main plus, main minus, shoulder plus and shoulder
    minus.  In the main runs the data photon is prepared in its plus, then
    its minus state while the program photon keeps its setting; the shoulder
    runs use the 45-degree inputs outside the dip.  `eta` relaxes the main
    runs only, so the shoulder normalization stays that of the raw
    measurement.
    """
    n = len(settings)
    center, shoulder = [0.0] * n, [config.shoulder_position] * n
    stages = [
        ([_setting_angles(plus, program) for plus, _, program in settings], center, eta),
        ([_setting_angles(minus, program) for _, minus, program in settings], center, eta),
        ([_setting_angles(*_diagonal_setting(+1))] * n, shoulder, 1.0),
        ([_setting_angles(*_diagonal_setting(-1))] * n, shoulder, 1.0),
    ]
    point_cfg = with_pairs_per_point(config, pairs_per_point)
    runs = _run_stages(stages, point_cfg, config.seed if seed is None else seed)
    return [CountRecord(*mp, *mm, *sp, *sm) for mp, mm, sp, sm in zip(*runs)]


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
    all positions, position i drawing from SeedSequence(config.seed).spawn(n)[i]
    (see the module docstring).  The two dipping curves are fitted with a
    Gaussian dip; their mean fitted visibility estimates the mode overlap at
    zero displacement.
    """
    if len(positions) == 0:
        raise ValueError("positions must be nonempty")
    pos = np.asarray(positions, dtype=float)
    stages = [([_setting_angles(*_diagonal_setting(s))] * len(pos), pos, 1.0) for s in (+1, -1)]
    counts = np.array(_run_stages(stages, config, config.seed), dtype=float)
    plus_in, minus_in = counts / (config.repetitions * config.period)
    dips = (plus_in[:, 1], minus_in[:, 0])
    fits = [f[0] for f in (_fit_visibility(pos, r, config.dip_sigma) for r in dips) if f is not None]
    visibility = float(np.mean(fits)) if fits else None
    return HomScanResult(pos, *plus_in.T, *minus_in.T, visibility, tuple(fits))


def with_pairs_per_point(config: ExperimentConfig, pairs_per_point: float) -> ExperimentConfig:
    """Config whose expected pair count per input setting equals pairs_per_point."""
    if not 0.0 < pairs_per_point < math.inf:
        raise ValueError(f"pairs per point must be a finite number > 0, got {pairs_per_point!r}")
    rate = pairs_per_point / (config.period * config.repetitions)
    return replace(config, pair_rate=rate)


def run_full_experiment(
    task: str,
    config: ExperimentConfig,
    *,
    epsilons: Sequence[float] = (),
    thetas: Sequence[float] = (),
    phis: Sequence[float] = (),
    eta: float = 1.0,
    pairs_per_point: float = 100_000.0,
):
    """Run a full sweep and package it as a Dataset.

    task is "discriminator" (grid epsilons x thetas) or "multimeter" (grid
    phis at a fixed eta), seeded by config.seed.  The columns are the fields
    of the task's point dataclass, each named by its "column" metadata where
    it has one, followed by COUNT_COLUMNS.  Estimates the counts of a point
    leave undefined are NaN.  Empty grids produce an empty dataset.
    """
    from . import discriminator, multimeter
    from .dataset import Dataset

    metadata = {
        "task": task,
        "seed": config.seed,
        "pairs_per_point": pairs_per_point,
        "config": config_to_dict(config),
    }
    if task == "discriminator":
        point_type = discriminator.DiscriminationPoint
        points = discriminator.run_discriminator_sweep(
            epsilons, thetas, config, pairs_per_point=pairs_per_point
        )
    elif task == "multimeter":
        point_type = multimeter.MultimeterPoint
        points = multimeter.run_multimeter_sweep(phis, eta, config, pairs_per_point=pairs_per_point)
        metadata["eta"] = eta
    else:
        raise ValueError(f"unknown task {task!r}; expected 'discriminator' or 'multimeter'")

    leading = [f for f in fields(point_type) if f.name != "counts"]
    columns = [f.metadata.get("column", f.name) for f in leading] + list(COUNT_COLUMNS)
    data = [[getattr(pt, f.name) for pt in points] for f in leading]
    data += [[getattr(pt.counts, name) for pt in points] for name in COUNT_COLUMNS]
    return Dataset.from_columns(columns, data, metadata)


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
