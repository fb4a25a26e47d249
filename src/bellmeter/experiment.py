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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real
from typing import NamedTuple, Sequence

import numpy as np

from . import polarization as pol
from .analyzer import AnalyzerConfig, outcome_probs_batch

# tolerance on the sum of each period's class probabilities
_PROB_SUM_TOL = 1e-9


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
    45-degree linear inputs outside the dip.
    """

    c_pp: int
    c_pm: int
    c_mp: int
    c_mm: int
    sh_pp: int
    sh_pm: int
    sh_mp: int
    sh_mm: int

    def __post_init__(self):
        for name in ("c_pp", "c_pm", "c_mp", "c_mm", "sh_pp", "sh_pm", "sh_mp", "sh_mm"):
            value = getattr(self, name)
            if value < 0 or int(value) != value:
                raise ValueError(f"{name} must be a nonnegative integer, got {value}")
            object.__setattr__(self, name, int(value))

    @property
    def conclusive_total(self) -> int:
        return self.c_pp + self.c_pm + self.c_mp + self.c_mm


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


def simulate_counts(
    data_setting: pol.PrepRecipe,
    program_setting: pol.PrepRecipe,
    position: float,
    config: ExperimentConfig,
    rng: np.random.Generator | None = None,
    eta: float = 1.0,
) -> ClassCounts:
    """Simulate the recorded coincidence counts for one input setting.

    Runs config.repetitions measurement periods as one array pass.  The four
    wave-plate angles of every period get their own uniform jitter; the data
    and program states of all periods are prepared together, and the analyzer
    gives each period's Psi+/Psi-/inconclusive probabilities p+, p-, p?,
    mixing its quantum and distinguishable branches by the mode overlap at
    `position`.

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
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    # [period, photon (data, program), plate (QWP, HWP)]
    angles = np.array(
        [
            [data_setting.qwp_deg, data_setting.hwp_deg],
            [program_setting.qwp_deg, program_setting.hwp_deg],
        ],
        dtype=float,
    )
    shape = (config.repetitions, 2, 2)
    if config.angle_jitter > 0.0:
        angles = angles + rng.uniform(-config.angle_jitter, config.angle_jitter, size=shape)
    else:
        angles = np.broadcast_to(angles, shape)
    jones = pol.prepare_from_angles(angles[..., 0], angles[..., 1])
    product = (jones[:, 0, :, None] * jones[:, 1, None, :]).reshape(-1, 4)
    probs = outcome_probs_batch(product, config.analyzer, mode_overlap_at(position, config))
    prob_sums = probs.sum(axis=1)
    if not np.all(np.abs(prob_sums - 1.0) <= _PROB_SUM_TOL):
        raise ValueError(f"analyzer class probabilities do not sum to 1: {prob_sums}")

    totals = probs.sum(axis=0)
    detected = config.detector_efficiency**2 * config.pair_rate * config.period
    dark = config.dark_count_rate**2 * config.coincidence_window * config.period
    relabeled = (1.0 - eta) / 2.0 * totals[2]
    means = detected * (totals[:2] + relabeled) + 2.0 * dark * config.repetitions
    n_plus, n_minus = rng.poisson(means)
    return ClassCounts(int(n_plus), int(n_minus))


def shoulder_counts(
    sign: int, config: ExperimentConfig, rng: np.random.Generator | None = None
) -> ClassCounts:
    """Normalization counts outside the dip with 45-degree linear inputs.

    sign=+1 uses (45, 45) degree inputs, sign=-1 uses (-45, 45); the sum of
    the two recorded classes approaches half the detected pair rate
    independently of the beamsplitter imbalance.
    """
    data = pol.recipe_discriminator(0.0, 45.0, sign)
    program = pol.recipe_discriminator(0.0, 45.0, +1)
    return simulate_counts(data, program, config.shoulder_position, config, rng)


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


def _fit_visibility(positions: np.ndarray, rates: np.ndarray, sigma_guess: float) -> float | None:
    """Least-squares fit of rate(x) = A (1 - V exp(-x^2/(2 s^2))); returns V."""
    from scipy.optimize import curve_fit

    if len(positions) < 4 or rates.max() <= 0:
        return None

    def model(x, amp, vis, sig):
        return amp * (1.0 - vis * np.exp(-(x**2) / (2.0 * sig**2)))

    try:
        popt, _ = curve_fit(
            model,
            positions,
            rates,
            p0=(float(rates.max()), 0.9, sigma_guess),
            maxfev=20_000,
        )
    except RuntimeError:
        return None
    return float(popt[1])


def hom_scan(
    positions: Sequence[float],
    config: ExperimentConfig,
    rng: np.random.Generator | None = None,
) -> HomScanResult:
    """Scan the mirror through the dip with 45-degree-type inputs.

    Per position, records the Psi+/Psi- class rates for the (45, 45) input
    (rate_pp rises toward the dip center, rate_mp dips) and for the (-45, 45)
    input (rate_pm dips, rate_mm rises).  The two dipping curves are fitted
    with a Gaussian dip; their mean fitted visibility estimates the mode
    overlap at zero displacement.
    """
    if len(positions) == 0:
        raise ValueError("positions must be nonempty")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    data_plus = pol.recipe_discriminator(0.0, 45.0, +1)
    data_minus = pol.recipe_discriminator(0.0, 45.0, -1)
    program = pol.recipe_discriminator(0.0, 45.0, +1)
    duration = config.repetitions * config.period

    pos = np.asarray(positions, dtype=float)
    rates = {key: np.zeros(len(pos)) for key in ("pp", "mp", "pm", "mm")}
    for i, x in enumerate(pos):
        plus_in = simulate_counts(data_plus, program, x, config, rng)
        minus_in = simulate_counts(data_minus, program, x, config, rng)
        rates["pp"][i] = plus_in.psi_plus / duration
        rates["mp"][i] = plus_in.psi_minus / duration
        rates["pm"][i] = minus_in.psi_plus / duration
        rates["mm"][i] = minus_in.psi_minus / duration

    fits = [
        v
        for v in (
            _fit_visibility(pos, rates["mp"], config.dip_sigma),
            _fit_visibility(pos, rates["pm"], config.dip_sigma),
        )
        if v is not None
    ]
    visibility = float(np.mean(fits)) if fits else None
    return HomScanResult(
        positions=pos,
        rate_pp=rates["pp"],
        rate_mp=rates["mp"],
        rate_pm=rates["pm"],
        rate_mm=rates["mm"],
        visibility=visibility,
        curve_visibilities=tuple(fits),
    )


def with_pairs_per_point(config: ExperimentConfig, pairs_per_point: float) -> ExperimentConfig:
    """Config whose expected pair count per input setting equals pairs_per_point."""
    rate = pairs_per_point / (config.period * config.repetitions)
    return replace(config, pair_rate=rate)


def run_full_experiment(
    task: str,
    config: ExperimentConfig,
    *,
    epsilons: Sequence[float] | None = None,
    thetas: Sequence[float] | None = None,
    phis: Sequence[float] | None = None,
    eta: float = 1.0,
    pairs_per_point: float = 100_000.0,
    seed: int | None = None,
):
    """Run a full sweep and package it as a Dataset.

    task is "discriminator" (grid epsilons x thetas) or "multimeter" (grid
    phis at a fixed eta).  Shoulder and main measurements are interleaved per
    sweep point; estimator failures on individual points are recorded as NaN
    without aborting.  Empty grids produce an empty dataset.
    """
    from . import discriminator, multimeter
    from .dataset import Dataset

    if task == "discriminator":
        epsilons = list(epsilons if epsilons is not None else (0.0, 12.0, 24.0, 36.0))
        thetas = list(thetas if thetas is not None else np.arange(0.0, 91.0, 4.0))
        points = discriminator.run_discriminator_sweep(
            epsilons, thetas, config, pairs_per_point=pairs_per_point, seed=seed
        )
        columns = [
            "epsilon", "theta", "p_theory", "p_optimal", "p_estimated", "p_stderr",
            "error_rate", "error_rate_stderr",
            "c_pp", "c_mp", "c_pm", "c_mm", "sh_pp", "sh_mp", "sh_pm", "sh_mm",
        ]
        rows = [
            [
                pt.epsilon, pt.theta, pt.p_theory, pt.p_optimal, pt.p_estimated, pt.p_stderr,
                pt.error_rate, pt.error_rate_stderr,
                pt.counts.c_pp, pt.counts.c_mp, pt.counts.c_pm, pt.counts.c_mm,
                pt.counts.sh_pp, pt.counts.sh_mp, pt.counts.sh_pm, pt.counts.sh_mm,
            ]
            for pt in points
        ]
    elif task == "multimeter":
        phis = list(phis if phis is not None else np.arange(-90.0, 91.0, 8.0))
        points = multimeter.run_multimeter_sweep(
            phis, eta, config, pairs_per_point=pairs_per_point, seed=seed
        )
        columns = [
            "phi", "eta", "pi_theory", "fidelity_theory", "pi_estimated", "pi_stderr",
            "fidelity_estimated", "error_rate", "error_rate_stderr",
            "c_pp", "c_mp", "c_pm", "c_mm", "sh_pp", "sh_mp", "sh_pm", "sh_mm",
        ]
        pi_theory = multimeter.theory_PI(eta)
        f_theory = multimeter.fidelity_from_PI(pi_theory)
        rows = [
            [
                pt.phi, pt.eta, pi_theory, f_theory, pt.p_inconclusive, pt.pi_stderr,
                pt.fidelity, pt.error_rate, pt.error_rate_stderr,
                pt.counts.c_pp, pt.counts.c_mp, pt.counts.c_pm, pt.counts.c_mm,
                pt.counts.sh_pp, pt.counts.sh_mp, pt.counts.sh_pm, pt.counts.sh_mm,
            ]
            for pt in points
        ]
    else:
        raise ValueError(f"unknown task {task!r}; expected 'discriminator' or 'multimeter'")

    metadata = {
        "task": task,
        "seed": config.seed if seed is None else seed,
        "pairs_per_point": pairs_per_point,
        "config": config_to_dict(config),
    }
    if task == "multimeter":
        metadata["eta"] = eta
    return Dataset(columns=columns, rows=rows, metadata=metadata)


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-ready snapshot of an ExperimentConfig."""
    return {
        "pair_rate": config.pair_rate,
        "period": config.period,
        "repetitions": config.repetitions,
        "detector_efficiency": config.detector_efficiency,
        "dark_count_rate": config.dark_count_rate,
        "coincidence_window": config.coincidence_window,
        "dip_sigma": config.dip_sigma,
        "shoulder_position": config.shoulder_position,
        "angle_jitter": config.angle_jitter,
        "seed": config.seed,
        "analyzer": {
            "transmittance_h": config.analyzer.transmittance_h,
            "transmittance_v": config.analyzer.transmittance_v,
            "mode_overlap": config.analyzer.mode_overlap,
            "geometric_phase": config.analyzer.geometric_phase,
            "detector_map": list(config.analyzer.detector_map),
        },
    }


def config_from_dict(data: dict) -> ExperimentConfig:
    """Parse a config mapping, rejecting unknown keys by name."""
    from .errors import SchemaViolationError

    if not isinstance(data, dict):
        raise SchemaViolationError(f"a config must be a JSON object, got {type(data).__name__}")
    data = dict(data)
    analyzer_data = data.pop("analyzer", {})
    if not isinstance(analyzer_data, dict):
        raise SchemaViolationError(
            f"the analyzer config must be a JSON object, got {type(analyzer_data).__name__}"
        )
    analyzer_fields = {"transmittance_h", "transmittance_v", "mode_overlap", "geometric_phase", "detector_map"}
    unknown = set(analyzer_data) - analyzer_fields
    if unknown:
        raise SchemaViolationError(f"unknown analyzer config key {sorted(unknown)[0]!r}")
    config_fields = {
        "pair_rate", "period", "repetitions", "detector_efficiency", "dark_count_rate",
        "coincidence_window", "dip_sigma", "shoulder_position", "angle_jitter", "seed",
    }
    unknown = set(data) - config_fields
    if unknown:
        raise SchemaViolationError(f"unknown config key {sorted(unknown)[0]!r}")
    return ExperimentConfig(analyzer=AnalyzerConfig(**analyzer_data), **data)
