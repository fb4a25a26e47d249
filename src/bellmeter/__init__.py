"""Programmable two-photon polarization measurements on a partial Bell analyzer.

Analytic theory, a physically faithful analyzer model, a Monte Carlo emulator
of the coincidence experiment, and the count-based estimators used to analyze
it.
"""

from .analyzer import (
    AnalyzerConfig,
    Outcome,
    OutcomeProbs,
    bs_transform,
    classify,
    distinguishable_outcome_probs,
    ideal_outcome_probs,
)
from .discriminator import (
    DiscriminationPoint,
    optimal_prob,
    run_discriminator_sweep,
    success_prob_theory,
)
from .errors import InvalidNormalizationError, NoDataError, SchemaViolationError
from .experiment import (
    ClassCounts,
    CountRecord,
    ExperimentConfig,
    hom_scan,
    mode_overlap_at,
    shoulder_counts,
    simulate_counts,
)
from .multimeter import (
    MultimeterPoint,
    PovmElement,
    effective_povm,
    fidelity_from_PI,
    povm_elements,
    reinterpret,
    run_multimeter_sweep,
    theory_PI,
)
from .polarization import (
    HORIZONTAL,
    VERTICAL,
    PlateKind,
    PolarizationState,
    PrepRecipe,
    WavePlate,
    apply_plate,
    overlap,
    prepare_elliptical,
    prepare_equatorial,
    prepare_from_recipe,
    recipe_discriminator,
    recipe_multimeter,
    waveplate_matrix,
)
from .twophoton import (
    BellDecomposition,
    BellProbs,
    TwoPhotonState,
    bell_decompose,
    bell_probabilities,
    bell_reconstruct,
    tensor,
)

__version__ = "0.1.0"
